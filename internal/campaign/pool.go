package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Supervise runs the campaign under the supervisor: a work-stealing
// shard pool with per-unit timeouts, panic isolation, retry with
// geometric backoff, poison quarantine, and — when cfg.Journal is set —
// a resumable fsync'd manifest. See the package comment for the
// guarantees; see Source for the determinism contract that makes the
// final Outcomes independent of worker count, steal schedule and
// interruption.
func Supervise[R any](cfg Config, src Source[R]) (*Run[R], error) {
	if src.N < 0 {
		return nil, fmt.Errorf("campaign: negative unit count %d", src.N)
	}
	if src.Key == nil {
		src.Key = func(i int) string { return fmt.Sprintf("unit%04d", i) }
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	run := &Run[R]{Outcomes: make([]Outcome[R], src.N)}
	run.Stats.Units = uint64(src.N)
	for i := range run.Outcomes {
		run.Outcomes[i].Index = i
		run.Outcomes[i].Key = src.Key(i)
	}

	// Resume: restore journaled terminal outcomes, then run the rest.
	var jl *journal
	if cfg.Journal != "" {
		if src.Encode == nil || src.Decode == nil {
			return nil, fmt.Errorf("campaign: journaling needs Source.Encode and Source.Decode")
		}
		var err error
		jl, err = openJournal(cfg.Journal, src.Kind, src.N, src.Fingerprint, cfg.CheckpointEvery)
		if err != nil {
			return nil, err
		}
		defer jl.close()
		for i, rec := range jl.restored {
			o := &run.Outcomes[i]
			o.Status = rec.Status
			o.Attempts = rec.Attempts
			o.Resumed = true
			if rec.Status == StatusOK {
				res, err := src.Decode(rec.Result)
				if err != nil {
					return nil, fmt.Errorf("campaign: journal %s: unit %d result: %w", cfg.Journal, i, err)
				}
				o.Result = res
			} else {
				run.Stats.Quarantined++
			}
			run.Stats.Resumed++
		}
	}

	var remaining []int
	for i := range run.Outcomes {
		if !run.Outcomes[i].Resumed {
			remaining = append(remaining, i)
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(remaining) {
		workers = len(remaining)
	}
	obs := cfg.Observer
	if obs != nil {
		obs.CampaignStart(src.Kind, workers, &run.Stats)
	}

	// Shard the remaining index space into contiguous per-worker deques.
	// Owners pop from the front; thieves steal from the back, so a
	// stolen unit is the one its owner would have reached last.
	shards := make([]*shard, workers)
	for w := range shards {
		lo, hi := w*len(remaining)/workers, (w+1)*len(remaining)/workers
		shards[w] = &shard{units: append([]int(nil), remaining[lo:hi]...)}
	}

	var (
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				if stopped.Load() {
					return
				}
				i, stolen := next(shards, self)
				if i < 0 {
					return
				}
				if stolen {
					atomic.AddUint64(&run.Stats.Steals, 1)
				}
				if obs != nil {
					obs.UnitStart(i, self, stolen)
				}
				out := superviseUnit(cfg, src, i, self)
				run.Outcomes[i] = out
				// Completed first: see Stats.Load.
				n := atomic.AddUint64(&run.Stats.Completed, 1)
				run.Stats.Book(out.Status, out.Attempts)
				if obs != nil {
					obs.UnitDone(i, self, out.Status, out.Attempts)
				}
				if jl != nil {
					var payload []byte
					var ck *checkpointRecord
					var err error
					if out.Status == StatusOK {
						payload, err = src.Encode(out.Result)
					}
					if err == nil {
						ck, err = jl.append(unitRecord{
							Unit: i, Status: out.Status, Attempts: out.Attempts, Result: payload,
						}, &run.Stats)
					}
					if err != nil {
						// Journal failures must not lose the campaign:
						// keep running, surface the error at the end.
						jl.fail(err)
					}
					notifyCheckpoint(obs, ck)
				}
				if cfg.StopAfter > 0 && n >= uint64(cfg.StopAfter) {
					stopped.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, o := range run.Outcomes {
		if o.Status == StatusPending {
			run.Interrupted = true
			break
		}
	}
	var err error
	if jl != nil {
		var ck *checkpointRecord
		ck, err = jl.finish(&run.Stats)
		notifyCheckpoint(obs, ck)
	}
	if obs != nil {
		obs.CampaignEnd(run.Interrupted)
	}
	return run, err
}

// notifyCheckpoint tells the observer about a checkpoint record the
// journal wrote (ck nil: none).
func notifyCheckpoint(obs Observer, ck *checkpointRecord) {
	if obs != nil && ck != nil {
		obs.Checkpoint(uint64(ck.Completed))
	}
}

// shard is one worker's deque of unit indexes.
type shard struct {
	mu    sync.Mutex
	units []int
}

// popFront takes the owner's next unit.
func (s *shard) popFront() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.units) == 0 {
		return -1, false
	}
	i := s.units[0]
	s.units = s.units[1:]
	return i, true
}

// popBack steals from the victim's tail.
func (s *shard) popBack() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.units) == 0 {
		return -1, false
	}
	i := s.units[len(s.units)-1]
	s.units = s.units[:len(s.units)-1]
	return i, true
}

// next returns the worker's next unit: its own shard first, then a
// steal sweep over the other shards. Returns -1 when every shard is
// drained.
func next(shards []*shard, self int) (unit int, stolen bool) {
	if i, ok := shards[self].popFront(); ok {
		return i, false
	}
	for off := 1; off < len(shards); off++ {
		victim := (self + off) % len(shards)
		if i, ok := shards[victim].popBack(); ok {
			return i, true
		}
	}
	return -1, false
}

// superviseUnit drives one unit through the attempt loop: run under
// timeout and panic recovery, retry with geometric backoff while the
// budget lasts, quarantine when it runs out. worker identifies the
// calling worker for the observer's span attribution only.
func superviseUnit[R any](cfg Config, src Source[R], i, worker int) Outcome[R] {
	out := Outcome[R]{Index: i, Key: src.Key(i)}
	obs := cfg.Observer
	for attempt := 0; ; attempt++ {
		if obs != nil {
			obs.AttemptStart(i, worker, attempt)
		}
		res, att := runAttempt(cfg, src, i)
		if att == nil {
			if obs != nil {
				obs.AttemptEnd(i, worker, attempt, "")
			}
			out.Status = StatusOK
			out.Result = res
			return out
		}
		if obs != nil {
			obs.AttemptEnd(i, worker, attempt, att.Failure)
		}
		out.Attempts = append(out.Attempts, *att)
		if attempt >= cfg.Retries {
			out.Status = StatusQuarantined
			return out
		}
		if cfg.BackoffBase > 0 {
			// Mirror the kernel's restart backoff: the r-th retry
			// (1-based) waits base << (r-1).
			delay := cfg.BackoffBase << uint(attempt)
			if obs != nil {
				obs.UnitBackoff(i, worker, attempt, delay)
			}
			cfg.Clock.Sleep(delay)
		}
	}
}

// attemptResult carries one attempt's verdict across the goroutine
// boundary.
type attemptResult[R any] struct {
	res R
	att *Attempt
}

// runAttempt executes unit i once, isolated in its own goroutine so a
// panic or a wedge is the unit's problem, never the worker's. On
// timeout the unit's context is cancelled and the goroutine abandoned:
// a run that cannot observe cancellation keeps the goroutine (until it
// finishes into a buffered channel nobody reads), but the worker and
// its shard move on — that is the isolation the pool promises.
func runAttempt[R any](cfg Config, src Source[R], i int) (R, *Attempt) {
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if cfg.Timeout > 0 {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	done := make(chan attemptResult[R], 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- attemptResult[R]{att: &Attempt{
					Failure: FailCrashed,
					Err:     fmt.Sprint(p),
					Stack:   crashStack(),
				}}
			}
		}()
		res, err := src.Run(ctx, i)
		if err != nil {
			done <- attemptResult[R]{att: &Attempt{Failure: FailError, Err: err.Error()}}
			return
		}
		done <- attemptResult[R]{res: res}
	}()
	if cfg.Timeout <= 0 {
		r := <-done
		return r.res, r.att
	}
	select {
	case r := <-done:
		return r.res, r.att
	case <-cfg.Clock.After(cfg.Timeout):
		cancel()
		var zero R
		return zero, &Attempt{
			Failure: FailTimeout,
			Err:     fmt.Sprintf("unit %s exceeded the %v wall-clock bound", src.Key(i), cfg.Timeout),
		}
	}
}
