package ticktock

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ticktock/internal/apps"
	"ticktock/internal/cyclebench"
	"ticktock/internal/difftest"
	"ticktock/internal/faultinject"
	"ticktock/internal/flightrec"
	"ticktock/internal/kcore"
	"ticktock/internal/kernel"
	"ticktock/internal/membench"
	"ticktock/internal/metrics"
	"ticktock/internal/monolithic"
	"ticktock/internal/riscv"
	"ticktock/internal/rvkernel"
	"ticktock/internal/trace"
)

var updateIdentity = flag.Bool("update-identity", false, "rewrite "+identityFile+" from this tree")

// identityFile pins one sha256 per report, table and recording the
// simulator produces, so a change that moves any of them names what
// moved. Regenerate it only for a deliberate behaviour change:
//
//	go test -run TestByteIdentity -update-identity .
const identityFile = "testdata/identity.txt"

// digests collects "name sha256" lines, one per artifact.
type digests struct {
	t     *testing.T
	lines []string
}

func (d *digests) add(name, data string) {
	d.lines = append(d.lines, fmt.Sprintf("%s %x", name, sha256.Sum256([]byte(data))))
}

func (d *digests) addRecording(name string, rec *flightrec.Recording) {
	var b bytes.Buffer
	if err := rec.Encode(&b); err != nil {
		d.t.Fatalf("%s: %v", name, err)
	}
	d.add(name, b.String())
}

// observed renders a metered run: its Prometheus exposition and its
// folded-stack cycle profile.
func observed(t *testing.T, reg *metrics.Registry, prof *metrics.Profile) string {
	var b strings.Builder
	if err := reg.ExportPrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String() + prof.FoldedDump()
}

// TestByteIdentity regenerates the campaign reports, the Figure 11 and
// §6.2 tables, the RISC-V campaign rows and per-run flight recordings,
// traces and metrics on both ports, and compares their digests with the
// committed ones.
func TestByteIdentity(t *testing.T) {
	d := &digests{t: t}

	cfg := faultinject.Config{Seed: 0, N: 500}
	rep := faultinject.Run(cfg)
	d.add("faultinject/report", rep.Text())
	d.add("faultinject/rows", difftest.Table(rep.Rows()))
	for _, sc := range faultinject.GenScenarios(cfg)[:40] {
		arm, rv, err := faultinject.RecordRuns(sc, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		d.addRecording("faultinject/record/"+sc.Label()+"/arm", arm)
		d.addRecording("faultinject/record/"+sc.Label()+"/rv", rv)
	}

	d.add("difftest/table", difftest.Table(difftest.RunAllConfig(difftest.Config{NoTraceDump: true})))
	for _, row := range difftest.RunAllConfig(difftest.Config{NoTraceDump: true, Metrics: true}) {
		d.add("difftest/metrics/"+row.Name+"/ticktock", observed(t, row.TickTockMetrics, row.TickTockProfile))
		d.add("difftest/metrics/"+row.Name+"/tock", observed(t, row.TockMetrics, row.TockProfile))
	}
	for _, tc := range apps.All() {
		for _, fl := range []kernel.Flavour{kernel.FlavourTickTock, kernel.FlavourTock} {
			_, rec, err := difftest.RunRecorded(tc, fl, difftest.Config{})
			if err != nil {
				t.Fatal(err)
			}
			d.addRecording("difftest/record/"+tc.Name+"/"+fl.String(), rec)
		}
	}
	for _, bug := range []struct {
		name string
		set  monolithic.BugSet
	}{
		{"grant-overlap", monolithic.BugSet{GrantOverlap: true}},
		{"brk-underflow", monolithic.BugSet{BrkUnderflow: true}},
		{"missed-mode-switch", monolithic.BugSet{MissedModeSwitch: true}},
	} {
		rows := difftest.RunAllConfig(difftest.Config{Bugs: bug.set})
		d.add("difftest/bug/"+bug.name+"/table", difftest.Table(rows))
		for _, row := range rows {
			d.add("difftest/bug/"+bug.name+"/divergence/"+row.Name, row.Divergence)
			d.add("difftest/bug/"+bug.name+"/bisection/"+row.Name, row.BisectionText)
		}
	}

	for _, chip := range riscv.Chips {
		for _, app := range rvkernel.ReleaseSubset() {
			name := chip.Name + "/" + app.Name
			k, err := rvkernel.New(chip)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.New(0)
			reg := metrics.NewRegistry()
			rec := flightrec.NewRecorder("rv32-" + chip.Name)
			k.Attach(kcore.Observe{Trace: tr, Metrics: reg, FlightRec: rec})
			if _, err := k.LoadProcess(app); err != nil {
				t.Fatal(err)
			}
			if _, err := k.Run(app.Quanta); err != nil {
				t.Fatal(err)
			}
			k.PublishCoreStats()
			d.addRecording("rvkernel/record/"+name, rec.Finish())
			d.add("rvkernel/trace/"+name, tr.TextDump())
			d.add("rvkernel/metrics/"+name, observed(t, reg, k.Profile()))
		}
	}
	rvRows, err := rvkernel.RunAllChips()
	if err != nil {
		t.Fatal(err)
	}
	var rows strings.Builder
	for _, r := range rvRows {
		fmt.Fprintf(&rows, "%s/%s state=%s completed=%v output=%q\n", r.Chip, r.App, r.State, r.Completed(), r.Output)
	}
	d.add("rvkernel/rows", rows.String())

	fig11, err := cyclebench.Compare()
	if err != nil {
		t.Fatal(err)
	}
	d.add("benchtab/fig11", cyclebench.Table(fig11))
	mem, err := membench.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	d.add("membench/arm", membench.Table(mem))
	rvMem, err := membench.RunAllRISCV()
	if err != nil {
		t.Fatal(err)
	}
	var rvTable []membench.Result
	for _, r := range rvMem {
		rvTable = append(rvTable, r.Result)
	}
	d.add("membench/riscv", membench.Table(rvTable))

	got := strings.Join(d.lines, "\n") + "\n"
	if *updateIdentity {
		if err := os.WriteFile(identityFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(identityFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, sum, _ := strings.Cut(line, " ")
		want[name] = sum
	}
	for _, line := range d.lines {
		name, sum, _ := strings.Cut(line, " ")
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: not in %s", name, identityFile)
		case w != sum:
			t.Errorf("%s moved: sha256 %s, pinned %s", name, sum, w)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s: pinned in %s but no longer produced", name, identityFile)
	}
}
