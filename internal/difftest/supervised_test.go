package difftest

import (
	"fmt"
	"strings"
	"testing"

	"ticktock/internal/apps"
	"ticktock/internal/campaign"
)

// TestRunAllSupervisedMatchesPlain: with nothing for the supervisor to
// do, the supervised campaign renders the exact table the plain pool
// renders.
func TestRunAllSupervisedMatchesPlain(t *testing.T) {
	plain := RunAllConfig(Config{})
	rows, run, err := RunAllSupervised(Config{}, campaign.Config{Retries: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Table(rows), Table(plain); got != want {
		t.Fatalf("supervised table differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	if run.Stats.Quarantined != 0 || run.Stats.Completed != uint64(len(rows)) {
		t.Fatalf("stats %+v", run.Stats)
	}
}

// TestRunAllSupervisedRejectsJournal: difftest rows carry live error
// values and registries, so supervised difftest runs must refuse a
// resume journal instead of silently losing state.
func TestRunAllSupervisedRejectsJournal(t *testing.T) {
	_, _, err := RunAllSupervised(Config{}, campaign.Config{Journal: t.TempDir() + "/j"}, nil)
	if err == nil || !strings.Contains(err.Error(), "not journal-serializable") {
		t.Fatalf("journaled difftest should be rejected, got %v", err)
	}
}

// TestSupervisedRowCarriesCause: a case the supervisor quarantines comes
// back as an errored row whose Err names the failure class and attempt
// count and carries the last attempt's own error text, with and without
// retries — so a plain campaign, which runs on the same path, keeps the
// load error it used to report.
func TestSupervisedRowCarriesCause(t *testing.T) {
	cause := RunCaseConfig(unloadableCase(), Config{}).Err
	if cause == nil {
		t.Fatal("unloadable case loaded")
	}
	for _, retries := range []int{0, 1} {
		sup := campaign.Config{Retries: retries, Clock: &campaign.FakeClock{}}
		rows, run, err := superviseCases([]apps.TestCase{unloadableCase()}, Config{}, sup, nil)
		if err != nil {
			t.Fatal(err)
		}
		if run.Stats.Quarantined != 1 {
			t.Fatalf("retries=%d: stats %+v", retries, run.Stats)
		}
		row := rows[0]
		if row.Err == nil || row.Name != "unloadable" {
			t.Fatalf("retries=%d: row %+v", retries, row)
		}
		want := fmt.Sprintf("error after %d attempts: %s", retries+1, cause)
		if !strings.Contains(row.Err.Error(), want) {
			t.Fatalf("retries=%d: row error %q lacks %q", retries, row.Err, want)
		}
		if s := Summarize(rows); s.Errored != 1 || s.Unexpected != 0 {
			t.Fatalf("retries=%d: summary %+v", retries, s)
		}
	}
}
