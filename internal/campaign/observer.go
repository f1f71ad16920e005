package campaign

import "time"

// Observer receives wall-clock lifecycle events from Supervise — the
// hook the live telemetry plane (internal/telemetry) hangs fleet spans
// and progress tracking on. Methods are called from worker goroutines
// concurrently, so implementations must be goroutine-safe; they run on
// the supervision (wall-clock) plane only and must never touch
// simulated state. A nil Config.Observer disables observation with no
// other behaviour change: outcomes, journals and aggregates are
// byte-identical with and without one.
type Observer interface {
	// CampaignStart fires once before any unit runs. stats is the live
	// ledger (Run.Stats), already holding the unit count and the units
	// restored from the journal; an observer reads its counts there.
	CampaignStart(kind string, workers int, stats *Stats)
	// UnitStart fires when a worker picks up a unit, before its first
	// attempt; stolen marks a unit taken from another worker's shard.
	UnitStart(unit, worker int, stolen bool)
	// AttemptStart/AttemptEnd bracket one attempt at a unit. failure is
	// "" for a successful attempt, else FailTimeout/FailCrashed/
	// FailError.
	AttemptStart(unit, worker, attempt int)
	AttemptEnd(unit, worker, attempt int, failure string)
	// UnitBackoff fires before the backoff sleep that precedes retry
	// attempt+1 (only when Config.BackoffBase is set).
	UnitBackoff(unit, worker, attempt int, delay time.Duration)
	// UnitDone fires when a unit reaches a terminal state, after the
	// ledger has booked it.
	UnitDone(unit, worker int, status Status, attempts []Attempt)
	// Checkpoint fires once per checkpoint record the journal writes,
	// the final one included (never without a journal); completed is
	// the record's count of completed units, resumed ones included.
	Checkpoint(completed uint64)
	// CampaignEnd fires once after every worker has drained and the
	// journal has written its final checkpoint.
	CampaignEnd(interrupted bool)
}
