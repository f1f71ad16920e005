// Package campaign is the crash-resilient supervision layer the fault
// and difftest campaigns run inside: a work-stealing shard pool whose
// workers are independently supervised, so one misbehaving scenario can
// never take the fleet down.
//
// Every unit of work gets:
//
//   - a wall-clock timeout: a wedged run is cancelled and classified
//     FailTimeout instead of stalling its shard;
//   - panic isolation: a panicking unit is recovered, recorded as
//     FailCrashed with the stack attached, and its worker keeps going;
//   - retry with budget: a failed attempt re-runs up to Retries times,
//     each retry preceded by an exponential backoff delay
//     (BackoffBase << attempt) mirroring the kernel's restart-backoff
//     policy — but in wall-clock time on a pluggable Clock, so the two
//     backoff layers compose without multiplying waits;
//   - poison quarantine: a unit that fails every attempt is classified
//     StatusQuarantined — a standing, reproducible bug report — and the
//     campaign continues instead of aborting.
//
// On top of the pool sits a resumable manifest (journal.go): completed
// units and their results are checkpointed to an fsync'd, digest-chained
// journal, so an interrupted campaign resumes from the last checkpoint
// and produces byte-identical final aggregates at any worker count.
//
// The package is generic over the unit result type and depends only on
// the metrics registry, so faultinject, difftest and runpack can all
// build on it without import cycles.
package campaign

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"ticktock/internal/metrics"
)

// Status is a unit's terminal supervision state.
type Status uint8

// Terminal states. The supervisor state machine per unit is
//
//	pending → running → (ok | retrying → running …) → quarantined
//
// with StatusPending surviving only in interrupted runs (StopAfter).
const (
	// StatusPending: the unit was never attempted — only possible when
	// the run was interrupted (Config.StopAfter) before reaching it.
	StatusPending Status = iota
	// StatusOK: an attempt completed and produced a result.
	StatusOK
	// StatusQuarantined: every attempt failed; the unit is poison and
	// is excluded from the aggregates instead of failing the campaign.
	StatusQuarantined
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusOK:
		return "ok"
	case StatusQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Failure kinds for one failed attempt.
const (
	// FailTimeout: the attempt exceeded Config.Timeout and was
	// cancelled.
	FailTimeout = "timeout"
	// FailCrashed: the attempt panicked; the stack is attached.
	FailCrashed = "crashed"
	// FailError: the attempt returned an error.
	FailError = "error"
)

// Attempt records one failed attempt at a unit.
type Attempt struct {
	// Failure is FailTimeout, FailCrashed or FailError.
	Failure string `json:"failure"`
	// Err is the panic value, returned error or timeout description.
	Err string `json:"err"`
	// Stack is the panicking goroutine's stack (FailCrashed only): this
	// module's frames only, as function names and module-relative
	// file:line, so it does not depend on the host or the build.
	Stack string `json:"stack,omitempty"`
}

// Outcome is one unit's terminal supervision record.
type Outcome[R any] struct {
	// Index and Key identify the unit.
	Index int
	Key   string
	// Status is the terminal state; Result is valid iff StatusOK.
	Status Status
	Result R
	// Attempts lists the failed attempts, in order. A StatusOK outcome
	// with non-empty Attempts succeeded on a retry.
	Attempts []Attempt
	// Resumed marks an outcome restored from the journal rather than
	// re-run in this invocation.
	Resumed bool
}

// FinalFailure names the failure that quarantined the unit ("" unless
// StatusQuarantined): the failure kind of its last attempt.
func (o Outcome[R]) FinalFailure() string {
	if o.Status != StatusQuarantined || len(o.Attempts) == 0 {
		return ""
	}
	return o.Attempts[len(o.Attempts)-1].Failure
}

// Source describes a campaign to the supervisor. Units are indexed
// 0..N-1 and must be independent and deterministic: unit i's result may
// depend on i and the campaign config, never on execution order — that
// is what makes aggregates byte-identical at any worker count and across
// interruption.
type Source[R any] struct {
	// N is the unit count.
	N int
	// Kind names the campaign in the journal header ("faultcamp",
	// "difftest", …).
	Kind string
	// Fingerprint is the canonical encoding of the campaign config; the
	// journal stores its sha256 so a journal can only resume the exact
	// campaign that wrote it.
	Fingerprint []byte
	// Key labels unit i for quarantine reports and attempt errors.
	Key func(i int) string
	// Run executes unit i. ctx is cancelled when the unit times out;
	// runs that cannot observe ctx are abandoned to the garbage
	// collector (the worker moves on regardless).
	Run func(ctx context.Context, i int) (R, error)
	// Encode/Decode serialize results for the journal. Encode must
	// produce valid JSON (the journal embeds it verbatim). Both nil
	// disables journaling (Config.Journal must then be empty).
	Encode func(R) ([]byte, error)
	Decode func([]byte) (R, error)
}

// Config tunes the supervisor.
type Config struct {
	// Workers sizes the shard pool (0 = GOMAXPROCS, capped at the
	// remaining unit count).
	Workers int
	// Timeout is the per-attempt wall-clock bound (0 = unbounded).
	Timeout time.Duration
	// Retries is the retry budget: a unit runs at most Retries+1 times
	// before it is quarantined.
	Retries int
	// BackoffBase, when non-zero, delays the r-th retry (1-based) by
	// BackoffBase << (r-1) — the same geometric schedule as the
	// kernel's restart backoff, but in wall-clock time.
	BackoffBase time.Duration
	// Clock supplies sleeps and timeout timers (nil = the real clock).
	Clock Clock
	// Journal, when non-empty, is the resumable manifest path: results
	// are checkpointed there (fsync'd) as they complete, and a journal
	// left by an interrupted run is resumed instead of restarted.
	Journal string
	// CheckpointEvery writes an aggregate checkpoint record after this
	// many completions (0 = DefaultCheckpointEvery).
	CheckpointEvery int
	// StopAfter, when non-zero, checkpoints and stops the run after
	// this many *newly* completed units — the bounded-work / graceful
	// pause hook, and how the kill-and-resume tests interrupt a
	// campaign at an arbitrary checkpoint.
	StopAfter int
	// Observer, when non-nil, receives wall-clock lifecycle events
	// (see Observer). It observes scheduling; it never influences it.
	Observer Observer
}

// DefaultCheckpointEvery is the checkpoint cadence.
const DefaultCheckpointEvery = 8

// Run is a finished (or interrupted) supervised campaign.
type Run[R any] struct {
	// Outcomes holds one terminal record per unit, by index.
	Outcomes []Outcome[R]
	// Stats is the supervision ledger, booked live. Steals and Resumed
	// are properties of this invocation's scheduling, not of the
	// campaign result — they belong in metrics, never in result
	// aggregates.
	Stats Stats
	// Interrupted reports that StopAfter tripped before every unit
	// completed; the journal holds the checkpoint to resume from.
	Interrupted bool
}

// Quarantined returns the quarantined outcomes, in index order.
func (r *Run[R]) Quarantined() []Outcome[R] {
	var out []Outcome[R]
	for _, o := range r.Outcomes {
		if o.Status == StatusQuarantined {
			out = append(out, o)
		}
	}
	return out
}

// Stats is the supervision ledger of one invocation, the one copy of
// its counts that every reader reads. Supervise books it atomically
// while the campaign runs; read a running campaign's ledger with Load.
type Stats struct {
	// Units is the campaign size; Completed counts units that reached a
	// terminal state in this invocation; Resumed counts units restored
	// from the journal.
	Units     uint64
	Completed uint64
	Resumed   uint64
	// Timeouts, Crashes and Errors count failed attempts by kind;
	// Retries counts re-runs after a failed attempt.
	Timeouts uint64
	Crashes  uint64
	Errors   uint64
	Retries  uint64
	// Quarantined counts units whose every attempt failed.
	Quarantined uint64
	// Steals counts units a worker took from another worker's shard.
	Steals uint64
	// Checkpoints counts journal checkpoint records written.
	Checkpoints uint64
}

// Book tallies a terminated unit's attempt failures, retries and
// quarantine, atomically: the one tally rule, used by the supervisor
// and by every report that folds outcomes back.
func (s *Stats) Book(status Status, attempts []Attempt) {
	for _, a := range attempts {
		switch a.Failure {
		case FailTimeout:
			atomic.AddUint64(&s.Timeouts, 1)
		case FailCrashed:
			atomic.AddUint64(&s.Crashes, 1)
		case FailError:
			atomic.AddUint64(&s.Errors, 1)
		}
	}
	retries := len(attempts)
	if status == StatusQuarantined {
		atomic.AddUint64(&s.Quarantined, 1)
		retries-- // the final failed attempt was not retried
	}
	if retries > 0 {
		atomic.AddUint64(&s.Retries, uint64(retries))
	}
}

// Load snapshots the ledger field by field, atomically. Supervise books
// a unit's Completed before its Quarantined and Load reads Quarantined
// first, so no snapshot holds more quarantined units than done ones.
func (s *Stats) Load() Stats {
	quarantined := atomic.LoadUint64(&s.Quarantined)
	return Stats{
		Units:       atomic.LoadUint64(&s.Units),
		Completed:   atomic.LoadUint64(&s.Completed),
		Resumed:     atomic.LoadUint64(&s.Resumed),
		Timeouts:    atomic.LoadUint64(&s.Timeouts),
		Crashes:     atomic.LoadUint64(&s.Crashes),
		Errors:      atomic.LoadUint64(&s.Errors),
		Retries:     atomic.LoadUint64(&s.Retries),
		Quarantined: quarantined,
		Steals:      atomic.LoadUint64(&s.Steals),
		Checkpoints: atomic.LoadUint64(&s.Checkpoints),
	}
}

// Publish books the invocation tallies into a metrics registry as the
// campaign_* series.
func (s Stats) Publish(reg *metrics.Registry) {
	reg.Counter("campaign_units_total").Add(s.Units)
	reg.Counter("campaign_completed_total").Add(s.Completed)
	reg.Counter("campaign_resumed_total").Add(s.Resumed)
	reg.Counter("campaign_timeouts_total").Add(s.Timeouts)
	reg.Counter("campaign_crashes_total").Add(s.Crashes)
	reg.Counter("campaign_errors_total").Add(s.Errors)
	reg.Counter("campaign_retries_total").Add(s.Retries)
	reg.Counter("campaign_quarantined_total").Add(s.Quarantined)
	reg.Counter("campaign_steals_total").Add(s.Steals)
	reg.Counter("campaign_checkpoints_total").Add(s.Checkpoints)
}
