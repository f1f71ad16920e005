package faultinject

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"ticktock/internal/campaign"
	"ticktock/internal/metrics"
	"ticktock/internal/telemetry"
)

// This file connects the supervised campaign to the live telemetry
// plane: each unit's injected runs carry a per-attempt kernel tracer
// (nested under the attempt span in the fleet timeline), and each
// terminal unit publishes its slice of the fault_* series into the
// plane's streaming aggregate. Everything here is nil-plane-safe and
// adds nothing to the simulated cycle meter — a nil plane is exactly
// the untelemetered path.

// publishUnit books one terminal result into a registry, mirroring
// exactly the slice of Report.tally + Report.Publish this result
// contributes: the per-(port,kind) outcome cell and the quarantine
// deltas. Zero cells are skipped — the live aggregate only carries
// series that moved, while the post-hoc Publish also creates the
// zero-valued remainder of the kind matrix.
func (res Result) publishUnit(reg *metrics.Registry) {
	if reg == nil || res.Sup != "" {
		return
	}
	kl := metrics.L("kind", res.Scenario.Kind.String())
	for _, port := range []struct {
		name string
		pr   PortResult
	}{{"arm", res.ARM}, {"rv32", res.RV}} {
		pl := metrics.L("port", port.name)
		var c OutcomeCounts
		c.add(port.pr.Outcome)
		for _, cell := range []struct {
			name string
			v    uint64
		}{
			{"fault_injected_total", c.Injected},
			{"fault_detected_total", c.Detected},
			{"fault_masked_total", c.Masked},
			{"fault_benign_total", c.Benign},
			{"fault_skipped_total", c.Skipped},
		} {
			if cell.v != 0 {
				reg.Counter(cell.name, pl, kl).Add(cell.v)
			}
		}
		if port.pr.QuarantineDelta != 0 {
			reg.Counter("fault_quarantined_total", pl).Add(port.pr.QuarantineDelta)
		}
	}
}

// UnitsTelemetry splits the campaign into supervised units — one
// scenario per unit, journal-codec'd as JSON, with cfg's chaos spec
// applied — for campaign.Supervise. With a non-nil plane, every
// attempt's injected runs feed a kernel tracer drawn from the plane's
// nest budget, and completed units register a publish closure that the
// plane folds into its streaming aggregate when the supervisor marks
// the unit terminal.
func UnitsTelemetry(cfg Config, plane *telemetry.Plane) (campaign.Source[Result], error) {
	cfg = cfg.withDefaults()
	chaos, err := ParseChaos(cfg.Chaos)
	if err != nil {
		return campaign.Source[Result]{}, err
	}
	return campaignRunner(cfg).units(chaos, plane), nil
}

// units builds the unit source for the runner's defaulted Config and a
// parsed chaos spec (nil for none); a nil plane is the untelemetered
// source. Every unit looks its clean baselines up in the runner's
// tables, so a campaign runs each distinct baseline about once.
func (r *runner) units(chaos map[int]string, plane *telemetry.Plane) campaign.Source[Result] {
	scenarios := GenScenarios(r.cfg)
	var mu sync.Mutex
	flakyFired := map[int]bool{}
	return campaign.Source[Result]{
		N:           len(scenarios),
		Kind:        SupervisedKind,
		Fingerprint: r.cfg.Fingerprint(),
		Key:         func(i int) string { return scenarios[i].Label() },
		Run: func(ctx context.Context, i int) (Result, error) {
			switch chaos[i] {
			case ChaosWedge:
				// Hold the unit until the supervisor cancels it; the
				// attempt is then classified as a timeout.
				<-ctx.Done()
				return Result{}, fmt.Errorf("chaos: scenario %d wedged until cancellation: %w", i, ctx.Err())
			case ChaosPanic:
				panic(fmt.Sprintf("chaos: scenario %d panicked", i))
			case ChaosFlaky:
				mu.Lock()
				fired := flakyFired[i]
				flakyFired[i] = true
				mu.Unlock()
				if !fired {
					return Result{}, fmt.Errorf("chaos: scenario %d transient failure", i)
				}
			}
			res := r.scenario(scenarios[i], plane.UnitTracer(i))
			plane.UnitObservation(i, res.publishUnit)
			return res, nil
		},
		Encode: func(r Result) ([]byte, error) { return json.Marshal(r) },
		Decode: func(b []byte) (Result, error) {
			var r Result
			err := json.Unmarshal(b, &r)
			return r, err
		},
	}
}
