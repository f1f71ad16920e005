package telemetry

import (
	"fmt"
	"strconv"
	"time"
)

// WorkerProgress is one worker's live state in a Progress snapshot.
type WorkerProgress struct {
	Worker int `json:"worker"`
	// State is "idle", "running" or "backoff".
	State string `json:"state"`
	// Unit and Attempt identify what the worker is on (-1 / 0 when
	// idle).
	Unit    int `json:"unit"`
	Attempt int `json:"attempt"`
	// SinceMS is how long the worker has been in this state.
	SinceMS int64 `json:"since_ms"`
}

// Progress is the /progress JSON schema: a fleet summary cheap enough
// to poll every second. Its counts come from the campaign's ledger
// (campaign.Stats), the source of the campaign_* series.
type Progress struct {
	Kind    string `json:"kind"`
	Units   int    `json:"units"`
	Workers int    `json:"workers"`
	Resumed int    `json:"resumed"`
	// Done counts units at a terminal state, including resumed ones;
	// OK + Quarantined = Done.
	Done        uint64 `json:"done"`
	OK          uint64 `json:"ok"`
	Quarantined uint64 `json:"quarantined"`
	// Failed attempts count once their unit terminates.
	Retries  uint64 `json:"retries"`
	Timeouts uint64 `json:"timeouts"`
	Crashes  uint64 `json:"crashes"`
	Errors   uint64 `json:"errors"`
	Steals   uint64 `json:"steals"`
	// Checkpoints counts journal checkpoint records (0 without one).
	Checkpoints uint64 `json:"checkpoints"`
	ElapsedMS   int64  `json:"elapsed_ms"`
	// ETAMS extrapolates the remaining wall time from this
	// invocation's completion rate; -1 while unknown.
	ETAMS       int64            `json:"eta_ms"`
	Running     bool             `json:"running"`
	Interrupted bool             `json:"interrupted"`
	PerWorker   []WorkerProgress `json:"per_worker"`
}

// Progress snapshots the fleet state. Nil-safe (returns the zero
// Progress).
func (p *Plane) Progress() Progress {
	var pr Progress
	if p == nil {
		return pr
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	st := p.stats.Load()
	pr.Kind = p.kind
	pr.Units = int(st.Units)
	pr.Workers = p.workers
	pr.Resumed = int(st.Resumed)
	pr.Done = st.Resumed + st.Completed
	pr.OK = pr.Done - st.Quarantined
	pr.Quarantined = st.Quarantined
	pr.Retries = st.Retries
	pr.Timeouts = st.Timeouts
	pr.Crashes = st.Crashes
	pr.Errors = st.Errors
	pr.Steals = st.Steals
	pr.Checkpoints = st.Checkpoints
	pr.Running = p.started && !p.ended
	pr.Interrupted = p.interrupted
	if p.started {
		pr.ElapsedMS = int64(now.Sub(p.start) / time.Millisecond)
	}
	pr.ETAMS = -1
	if remaining := st.Units - pr.Done; pr.Running && st.Completed > 0 && remaining > 0 {
		elapsed := now.Sub(p.start)
		pr.ETAMS = int64(time.Duration(float64(elapsed)/float64(st.Completed)*float64(remaining)) / time.Millisecond)
	} else if !pr.Running || remaining == 0 {
		pr.ETAMS = 0
	}
	for w, ws := range p.workerStates {
		pr.PerWorker = append(pr.PerWorker, WorkerProgress{
			Worker:  w,
			State:   ws.state,
			Unit:    ws.unit,
			Attempt: ws.attempt,
			SinceMS: int64(now.Sub(ws.since) / time.Millisecond),
		})
	}
	return pr
}

// Line renders a Progress as the single-line TTY summary.
func (pr Progress) Line() string {
	eta := "?"
	if pr.ETAMS >= 0 {
		eta = (time.Duration(pr.ETAMS) * time.Millisecond).Round(time.Second).String()
	}
	busy := 0
	for _, w := range pr.PerWorker {
		if w.State != "idle" {
			busy++
		}
	}
	return fmt.Sprintf("%s %d/%d ok=%d quar=%d retry=%d steal=%d workers=%d/%d elapsed=%s eta=%s",
		pr.Kind, pr.Done, pr.Units, pr.OK, pr.Quarantined, pr.Retries, pr.Steals,
		busy, pr.Workers,
		(time.Duration(pr.ElapsedMS) * time.Millisecond).Round(time.Second), eta)
}

func itoa(i int) string    { return strconv.Itoa(i) }
func utoa(u uint64) string { return strconv.FormatUint(u, 10) }
