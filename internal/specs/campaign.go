// Campaign-supervisor obligations: the contracts internal/campaign
// makes to the fault and difftest campaigns that run inside it. They
// mirror the kernel-side supervision specs one layer up — the same
// restart-budget / geometric-backoff / terminal-quarantine story, but
// for the test fleet instead of the processes under test — plus the
// resumable-manifest guarantee that an interrupted campaign finishes
// with byte-identical aggregates, and the nested-backoff guarantee
// that the kernel's simulated-cycle backoff and the supervisor's
// wall-clock backoff compose without multiplying waits.
package specs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ticktock/internal/campaign"
	"ticktock/internal/kcore"
	"ticktock/internal/kernel"
	"ticktock/internal/trace"
	"ticktock/internal/verify"
)

// CompCampaign is the registry component for campaign-supervisor
// obligations.
const CompCampaign = "Campaign"

// specSource builds a journal-capable int-result source for the
// supervisor obligations.
func specSource(n int, run func(ctx context.Context, i int) (int, error)) campaign.Source[int] {
	return campaign.Source[int]{
		N: n, Kind: "spec", Fingerprint: []byte("spec-campaign"),
		Run:    run,
		Encode: func(v int) ([]byte, error) { return json.Marshal(v) },
		Decode: func(b []byte) (int, error) {
			var v int
			err := json.Unmarshal(b, &v)
			return v, err
		},
	}
}

// nestedBackoffProbe runs one crasher kernel — restart policy, budget
// 3, kernel backoff base kernelBase simulated cycles — as a supervised
// campaign unit whose first attempt fails by design, forcing one
// supervisor retry with wall-clock backoff supBase on a deterministic
// clock. It returns the kernel's backoff delays (simulated cycles,
// from the trace of the successful attempt) and the supervisor's
// recorded backoff sleeps (wall clock).
func nestedBackoffProbe(kernelBase uint64, supBase time.Duration) (delays []uint64, sleeps []time.Duration, err error) {
	fc := &campaign.FakeClock{}
	var mu sync.Mutex
	failed := false
	src := specSource(1, func(ctx context.Context, i int) (int, error) {
		tr := trace.New(0)
		k, err := kernel.New(kernel.Options{
			Flavour: kernel.FlavourTickTock, FaultPolicy: kernel.PolicyRestart,
			MaxRestarts: 3, BackoffBase: kernelBase, Observe: kcore.Observe{Trace: tr},
		})
		if err != nil {
			return 0, err
		}
		p, err := k.LoadProcess(crasherApp())
		if err != nil {
			return 0, err
		}
		if _, err := k.Run(10000); err != nil {
			return 0, err
		}
		if !strings.Contains(p.FaultReason, "gave up") {
			return 0, fmt.Errorf("crasher not exhausted: %q", p.FaultReason)
		}
		mu.Lock()
		defer mu.Unlock()
		delays = delays[:0]
		for _, ev := range tr.Events() {
			if ev.Kind == trace.KindBackoff {
				delays = append(delays, ev.B)
			}
		}
		if !failed {
			failed = true
			return 0, errors.New("first attempt fails by design")
		}
		return len(delays), nil
	})
	run, err := campaign.Supervise(campaign.Config{
		Workers: 1, Retries: 2, BackoffBase: supBase, Clock: fc,
	}, src)
	if err != nil {
		return nil, nil, err
	}
	if run.Outcomes[0].Status != campaign.StatusOK {
		return nil, nil, fmt.Errorf("probe unit ended %v", run.Outcomes[0].Status)
	}
	return delays, fc.Sleeps(), nil
}

// BuildCampaign assembles the campaign-supervisor registry: exact
// retry budgets, geometric wall-clock backoff, terminal quarantine
// across resume, resumed-aggregate determinism, and additive (never
// multiplicative) nesting with the kernel's restart backoff.
func BuildCampaign(sc Scale) *verify.Registry {
	r := verify.NewRegistry()
	_ = sc

	r.Add(&verify.Spec{
		Component:  CompCampaign,
		Name:       "campaign/retry_budget_exact",
		SpecLines:  3,
		DomainSize: 4,
		Body: func(t *verify.T) {
			for budget := 0; budget <= 3 && !t.Stopped(); budget++ {
				t.Enumerate(1)
				runs := 0
				src := specSource(1, func(ctx context.Context, i int) (int, error) {
					runs++
					return 0, errors.New("poison")
				})
				run, err := campaign.Supervise(campaign.Config{Workers: 1, Retries: budget}, src)
				if err != nil {
					t.Failf("supervise", "budget=%d: %v", budget, err)
					return
				}
				o := run.Outcomes[0]
				if runs != budget+1 || len(o.Attempts) != budget+1 {
					t.Failf("budget", "Retries=%d: ran %d times, %d attempts recorded", budget, runs, len(o.Attempts))
				}
				if o.Status != campaign.StatusQuarantined || run.Stats.Retries != uint64(budget) {
					t.Failf("terminal state", "budget=%d: status=%v retries=%d", budget, o.Status, run.Stats.Retries)
				}
			}
		},
	})

	r.Add(&verify.Spec{
		Component:  CompCampaign,
		Name:       "campaign/backoff_geometric",
		SpecLines:  2,
		DomainSize: 3,
		Body: func(t *verify.T) {
			for _, base := range []time.Duration{time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond} {
				if t.Stopped() {
					return
				}
				t.Enumerate(1)
				fc := &campaign.FakeClock{}
				src := specSource(1, func(ctx context.Context, i int) (int, error) {
					return 0, errors.New("always fails")
				})
				if _, err := campaign.Supervise(campaign.Config{
					Workers: 1, Retries: 3, BackoffBase: base, Clock: fc,
				}, src); err != nil {
					t.Failf("supervise", "base=%v: %v", base, err)
					return
				}
				sleeps := fc.Sleeps()
				if len(sleeps) != 3 {
					t.Failf("count", "base=%v: %d backoff sleeps, want 3", base, len(sleeps))
					return
				}
				for i, d := range sleeps {
					if want := base << uint(i); d != want {
						t.Failf("growth", "base=%v retry=%d slept %v want %v", base, i+1, d, want)
					}
				}
			}
		},
	})

	r.Add(&verify.Spec{
		Component:  CompCampaign,
		Name:       "campaign/quarantine_terminal",
		SpecLines:  3,
		DomainSize: 1,
		Body: func(t *verify.T) {
			t.Enumerate(1)
			dir, err := os.MkdirTemp("", "campaign-spec-")
			if err != nil {
				t.Failf("tempdir", "%v", err)
				return
			}
			defer os.RemoveAll(dir)
			jpath := filepath.Join(dir, "journal")
			poisonRuns := 0
			src := specSource(2, func(ctx context.Context, i int) (int, error) {
				if i == 0 {
					poisonRuns++
					return 0, errors.New("poison")
				}
				return i * i, nil
			})
			cfg := campaign.Config{Workers: 1, Retries: 2, Journal: jpath}
			first, err := campaign.Supervise(cfg, src)
			if err != nil {
				t.Failf("first run", "%v", err)
				return
			}
			if first.Outcomes[0].Status != campaign.StatusQuarantined || poisonRuns != 3 {
				t.Failf("quarantine", "status=%v runs=%d", first.Outcomes[0].Status, poisonRuns)
				return
			}
			// Terminal: resuming the journal never re-attempts the
			// poison unit, and its quarantine record survives verbatim.
			again, err := campaign.Supervise(cfg, src)
			if err != nil {
				t.Failf("resume", "%v", err)
				return
			}
			o := again.Outcomes[0]
			if poisonRuns != 3 {
				t.Failf("terminal", "resume re-ran the poison unit (%d runs)", poisonRuns)
			}
			if o.Status != campaign.StatusQuarantined || !o.Resumed || len(o.Attempts) != 3 {
				t.Failf("restored record", "status=%v resumed=%v attempts=%d", o.Status, o.Resumed, len(o.Attempts))
			}
		},
	})

	r.Add(&verify.Spec{
		Component:  CompCampaign,
		Name:       "campaign/resume_determinism",
		SpecLines:  4,
		DomainSize: 2,
		Body: func(t *verify.T) {
			const n = 12
			run := func(ctx context.Context, i int) (int, error) { return i*i + 7, nil }
			aggregate := func(r *campaign.Run[int]) string {
				var b strings.Builder
				for _, o := range r.Outcomes {
					fmt.Fprintf(&b, "%d:%v:%d;", o.Index, o.Status, o.Result)
				}
				return b.String()
			}
			straight, err := campaign.Supervise(campaign.Config{Workers: 3}, specSource(n, run))
			if err != nil {
				t.Failf("uninterrupted", "%v", err)
				return
			}
			for _, stopAfter := range []int{3, 7} {
				if t.Stopped() {
					return
				}
				t.Enumerate(1)
				dir, err := os.MkdirTemp("", "campaign-spec-")
				if err != nil {
					t.Failf("tempdir", "%v", err)
					return
				}
				defer os.RemoveAll(dir)
				jpath := filepath.Join(dir, "journal")
				first, err := campaign.Supervise(campaign.Config{
					Workers: 2, StopAfter: stopAfter, Journal: jpath,
				}, specSource(n, run))
				if err != nil {
					t.Failf("interrupted run", "stop=%d: %v", stopAfter, err)
					return
				}
				if !first.Interrupted {
					t.Failf("interruption", "stop=%d: run was not interrupted", stopAfter)
					return
				}
				resumed, err := campaign.Supervise(campaign.Config{Workers: 5, Journal: jpath}, specSource(n, run))
				if err != nil {
					t.Failf("resumed run", "stop=%d: %v", stopAfter, err)
					return
				}
				if got, want := aggregate(resumed), aggregate(straight); got != want {
					t.Failf("aggregate", "stop=%d: resumed aggregate differs\n got %s\nwant %s", stopAfter, got, want)
				}
				if resumed.Stats.Resumed == 0 {
					t.Failf("resume evidence", "stop=%d: no units restored from the journal", stopAfter)
				}
			}
		},
	})

	r.Add(&verify.Spec{
		Component:  CompCampaign,
		Name:       "campaign/nested_backoff_additive",
		SpecLines:  4,
		DomainSize: 2,
		Body: func(t *verify.T) {
			// The kernel's restart backoff runs in simulated cycles; the
			// supervisor's retry backoff runs in wall-clock time on its
			// own Clock. Nesting them must be additive in attempts, never
			// multiplicative in waits: growing the kernel base ~8000x
			// (128 → 1<<20 cycles) must leave the supervisor's sleep
			// schedule byte-identical, while each layer stays geometric
			// in its own time domain.
			const supBase = 10 * time.Millisecond
			var schedules [][]time.Duration
			for _, kernelBase := range []uint64{128, 1 << 20} {
				if t.Stopped() {
					return
				}
				t.Enumerate(1)
				delays, sleeps, err := nestedBackoffProbe(kernelBase, supBase)
				if err != nil {
					t.Failf("probe", "kernelBase=%d: %v", kernelBase, err)
					return
				}
				if len(delays) != 3 {
					t.Failf("kernel layer", "kernelBase=%d: %d backoff events, want 3", kernelBase, len(delays))
					return
				}
				for i, d := range delays {
					if want := kernelBase << uint(i); d != want {
						t.Failf("kernel geometric", "kernelBase=%d restart=%d delay=%d want %d", kernelBase, i+1, d, want)
					}
				}
				if len(sleeps) != 1 || sleeps[0] != supBase {
					t.Failf("supervisor layer", "kernelBase=%d: sleeps=%v want [%v]", kernelBase, sleeps, supBase)
				}
				schedules = append(schedules, sleeps)
			}
			if len(schedules) == 2 && fmt.Sprint(schedules[0]) != fmt.Sprint(schedules[1]) {
				t.Failf("no multiplication", "supervisor sleeps changed with kernel backoff magnitude: %v vs %v", schedules[0], schedules[1])
			}
		},
	})

	return r
}
