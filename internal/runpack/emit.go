package runpack

import (
	"fmt"
	"strings"

	"ticktock/internal/campaign"
	"ticktock/internal/difftest"
	"ticktock/internal/faultinject"
	"ticktock/internal/flightrec"
	"ticktock/internal/kernel"
	"ticktock/internal/metrics"
	"ticktock/internal/trace"
)

// eventsText renders a recording's interleaved trace events as the
// pack's trace export — same columns as trace.ExportText, derived from
// the recorded event stream rather than a live tracer.
func eventsText(rec *flightrec.Recording) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-6s %-16s %-16s %s\n", "cycle", "seq", "proc", "kind", "detail")
	for _, e := range rec.Events {
		proc := "kernel"
		if e.Proc != trace.KernelProc {
			proc = fmt.Sprintf("%d/%s", e.Proc, e.Name)
		}
		fmt.Fprintf(&b, "%-16d %-6d %-16s %-16s %s\n", e.Cycle, e.Seq, proc, e.Kind, e.Label)
	}
	return []byte(b.String())
}

// prometheusText renders a registry's exposition for a pack member.
func prometheusText(reg *metrics.Registry) ([]byte, error) {
	var b strings.Builder
	if err := reg.ExportPrometheus(&b); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// faultcampConfig is the stable config view stored in campaign and
// quarantine packs: the settings that determine scenario results, and
// none of the scheduling ones such as Workers.
type faultcampConfig struct {
	Seed        int64  `json:"seed"`
	N           int    `json:"n"`
	MaxRestarts int    `json:"max_restarts"`
	Watchdog    int    `json:"watchdog"`
	BackoffBase uint64 `json:"backoff_base"`
	Chaos       string `json:"chaos,omitempty"`
}

// packConfig returns the faultcampConfig view of cfg.
func packConfig(cfg faultinject.Config) faultcampConfig {
	return faultcampConfig{
		Seed: cfg.Seed, N: cfg.N,
		MaxRestarts: faultinject.MaxRestarts, Watchdog: faultinject.Watchdog, BackoffBase: faultinject.BackoffBase,
		Chaos: cfg.Chaos,
	}
}

// EmitFaultcamp seals a campaign run under supervision settings sup
// into a content-addressed pack under root: the report text (result
// member), the per-scenario cross-port rows, the fault_* metrics
// exposition, a witness recording of scenario 0's injected run on both
// ports (the evidence replay re-derives), and the flight recording of
// every violating run. The receipt's command (FaultcampCommand) re-runs
// the campaign in-process.
func EmitFaultcamp(root string, rep *faultinject.Report, sup campaign.Config) (dir, receipt string, err error) {
	cfg := rep.Config
	b := NewBuilder(KindFaultcamp, FaultcampCommand(rep, sup), packConfig(cfg))
	b.AddFile("result.txt", []byte(rep.Text()))
	b.SetResult("result.txt")
	b.AddFile("rows.txt", []byte(difftest.Table(rep.Rows())))

	reg := metrics.NewRegistry()
	rep.Publish(reg)
	prom, err := prometheusText(reg)
	if err != nil {
		return "", "", err
	}
	b.AddFile("metrics.prom", prom)

	if len(rep.Results) > 0 {
		sc := rep.Results[0].Scenario
		arm, rv, err := faultinject.RecordRuns(sc, cfg, true)
		if err != nil {
			return "", "", err
		}
		b.AddRecording("witness-arm.ttfr", arm)
		b.AddRecording("witness-rv.ttfr", rv)
	}
	for _, res := range rep.Results {
		if res.ARM.Replay != nil {
			b.AddRecording(fmt.Sprintf("violation-sc%04d-arm.ttfr", res.Scenario.Index), res.ARM.Replay)
		}
		if res.RV.Replay != nil {
			b.AddRecording(fmt.Sprintf("violation-sc%04d-rv.ttfr", res.Scenario.Index), res.RV.Replay)
		}
	}
	return b.Seal(root)
}

// difftestConfig is the stable config view stored in difftest packs.
type difftestConfig struct {
	Bug string `json:"bug,omitempty"`
}

// EmitDifftest seals a §6.1 campaign into a content-addressed pack
// under root: the campaign table (result member), the merged metrics
// exposition, a witness recording of the first case on both flavours,
// and — for every row that missed its expectation — both flavours'
// recordings of the divergent case. The receipt's command re-runs the
// campaign in-process.
func EmitDifftest(root string, cfg difftest.Config, rows []difftest.Row) (dir, receipt string, err error) {
	b := NewBuilder(KindDifftest, DifftestCommand(cfg), difftestConfig{Bug: cfg.Bugs.Name()})
	b.AddFile("result.txt", []byte(difftest.Table(rows)))
	b.SetResult("result.txt")

	prom, err := prometheusText(difftest.MergeMetrics(rows))
	if err != nil {
		return "", "", err
	}
	b.AddFile("metrics.prom", prom)

	record := func(name, caseName string, fl kernel.Flavour) error {
		tc, err := findCase(caseName)
		if err != nil {
			return err
		}
		_, rec, err := difftest.RunRecorded(tc, fl, cfg)
		if err != nil {
			return err
		}
		b.AddRecording(name, rec)
		b.AddFile(strings.TrimSuffix(name, ".ttfr")+"-trace.txt", eventsText(rec))
		return nil
	}
	if len(rows) > 0 {
		witness := rows[0].Name
		if err := record("witness-ticktock.ttfr", witness, kernel.FlavourTickTock); err != nil {
			return "", "", err
		}
		if err := record("witness-tock.ttfr", witness, kernel.FlavourTock); err != nil {
			return "", "", err
		}
	}
	for _, row := range rows {
		if row.Err != nil || row.OK() {
			continue
		}
		if err := record("div-"+row.Name+"-ticktock.ttfr", row.Name, kernel.FlavourTickTock); err != nil {
			return "", "", err
		}
		if err := record("div-"+row.Name+"-tock.ttfr", row.Name, kernel.FlavourTock); err != nil {
			return "", "", err
		}
	}
	return b.Seal(root)
}

// replayConfig is the stable config view stored in replay packs.
type replayConfig struct {
	Case    string `json:"case"`
	Flavour string `json:"flavour"`
}

// EmitReplay seals one recorded case into a content-addressed pack
// under root: the recording itself is the result member (the receipt's
// command re-records it byte-identically), alongside its trace export.
func EmitReplay(root, caseName string, fl kernel.Flavour, rec *flightrec.Recording) (dir, receipt string, err error) {
	b := NewBuilder(KindReplay, ReplayCommand(caseName, fl), replayConfig{Case: caseName, Flavour: fl.String()})
	b.AddRecording("recording.ttfr", rec)
	b.SetResult("recording.ttfr")
	b.AddFile("trace.txt", eventsText(rec))
	return b.Seal(root)
}
