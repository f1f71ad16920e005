package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"ticktock/internal/difftest"
	"ticktock/internal/monolithic"
)

// runCLI invokes the difftest entry point against buffers.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageErrorsExitTwo: an unknown -bug is a usage error, and so is
// any flag but -j next to -cores, since the core-oracle campaign reads
// only -j. -cores used to drop the others silently — an invalid -bug
// went unreported and -runpack wrote no pack — so the error names the
// flag, before any case runs.
func TestUsageErrorsExitTwo(t *testing.T) {
	packDir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-bug", "no-such-bug"}, []string{`unknown -bug "no-such-bug"`}},
		{[]string{"-cores", "-bug", "no-such-bug"}, []string{`unknown -bug "no-such-bug"`}},
		{[]string{"-cores", "-bug", "grant-overlap"}, []string{"-bug"}},
		{[]string{"-cores", "-j", "2", "-runpack", packDir, "-serve", "127.0.0.1:0"}, []string{"-runpack", "-serve"}},
		{[]string{"-cores", "-v"}, []string{"-v"}},
	} {
		code, stdout, stderr := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2; stderr:\n%s", tc.args, code, stderr)
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr, w) {
				t.Errorf("%v: stderr %q does not name %s", tc.args, stderr, w)
			}
		}
		if stdout != "" {
			t.Errorf("%v: cases ran before the rejection:\n%s", tc.args, stdout)
		}
	}
	if entries, err := os.ReadDir(packDir); err != nil || len(entries) != 0 {
		t.Fatalf("rejected run wrote under -runpack DIR: %v %v", entries, err)
	}
}

// TestCoresTableIsWorkerInvariant: -cores alone and with -j print the
// same all-ok table of 21 release tests on both flavours.
func TestCoresTableIsWorkerInvariant(t *testing.T) {
	code, serial, stderr := runCLI(t, "-cores", "-j", "1")
	if code != 0 {
		t.Fatalf("-cores -j 1: exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.HasSuffix(serial, "\n42 core comparisons, 0 divergent/errored\n") {
		t.Fatalf("-cores -j 1 table:\n%s", serial)
	}
	code, parallel, stderr := runCLI(t, "-cores", "-j", "2")
	if code != 0 || parallel != serial {
		t.Fatalf("-cores -j 2: exit %d, table differs from -j 1:\n%s\nstderr:\n%s", code, parallel, stderr)
	}
}

// TestBugRowsAgainstCleanRun pins which rows of the release suite each
// published bug changes relative to the clean run, which the package
// comment states: only missed-mode-switch shows in the suite, while the
// other two are found by their own tests.
func TestBugRowsAgainstCleanRun(t *testing.T) {
	clean := difftest.RunAllConfig(difftest.Config{NoTraceDump: true})
	for bug, want := range map[string][]string{
		"grant-overlap":      nil,
		"brk-underflow":      nil,
		"missed-mode-switch": {"stack_growth", "mpu_walk_region"},
	} {
		bugs, ok := monolithic.ParseBug(bug)
		if !ok {
			t.Fatalf("unknown bug %q", bug)
		}
		var got []string
		for i, row := range difftest.RunAllConfig(difftest.Config{Bugs: bugs, NoTraceDump: true}) {
			c := clean[i]
			if row.Name != c.Name {
				t.Fatalf("%s: row %d is %s, clean row %s", bug, i, row.Name, c.Name)
			}
			if row.Equal != c.Equal || row.TickTock != c.TickTock || row.Tock != c.Tock ||
				row.TickTockStates != c.TickTockStates || row.TockStates != c.TockStates ||
				fmt.Sprint(row.Err) != fmt.Sprint(c.Err) {
				got = append(got, row.Name)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("-bug %s changes rows %v of the clean run, want %v", bug, got, want)
		}
	}
}
