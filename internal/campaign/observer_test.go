package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordingObserver keeps the ledger CampaignStart hands over, the
// checkpoint counts it is told about and, at each unit completion, the
// ledger's Completed count.
type recordingObserver struct {
	mu          sync.Mutex
	stats       *Stats
	checkpoints []uint64
	doneSeen    []uint64
}

func (o *recordingObserver) CampaignStart(kind string, workers int, stats *Stats)       { o.stats = stats }
func (o *recordingObserver) UnitStart(unit, worker int, stolen bool)                    {}
func (o *recordingObserver) AttemptStart(unit, worker, attempt int)                     {}
func (o *recordingObserver) AttemptEnd(unit, worker, attempt int, failure string)       {}
func (o *recordingObserver) UnitBackoff(unit, worker, attempt int, delay time.Duration) {}
func (o *recordingObserver) CampaignEnd(interrupted bool)                               {}

func (o *recordingObserver) UnitDone(unit, worker int, status Status, attempts []Attempt) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.doneSeen = append(o.doneSeen, o.stats.Load().Completed)
}

func (o *recordingObserver) Checkpoint(completed uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.checkpoints = append(o.checkpoints, completed)
}

// journalCheckpoints returns the completed counts of the checkpoint
// records in the journal at path, in file order.
func journalCheckpoints(t *testing.T, path string) []uint64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.Contains(ln, `"checkpoint":true`) {
			continue
		}
		var ck checkpointRecord
		if err := json.Unmarshal([]byte(ln), &ck); err != nil {
			t.Fatal(err)
		}
		out = append(out, uint64(ck.Completed))
	}
	return out
}

// An observer is told about exactly the checkpoint records the journal
// writes, the final one included — across a stop and a resume — and
// about none when there is no journal.
func TestObserverCheckpointPerJournalRecord(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.journal")
	var written int
	for _, cfg := range []Config{
		{Workers: 3, Journal: journal, CheckpointEvery: 4, StopAfter: 10},
		{Workers: 2, Journal: journal, CheckpointEvery: 4},
	} {
		obs := &recordingObserver{}
		cfg.Observer = obs
		run, err := Supervise(cfg, intSource(30, nil))
		if err != nil {
			t.Fatal(err)
		}
		records := journalCheckpoints(t, journal)
		fresh := records[written:]
		written = len(records)
		slices.Sort(fresh)
		slices.Sort(obs.checkpoints)
		if len(fresh) == 0 || !slices.Equal(obs.checkpoints, fresh) || uint64(len(fresh)) != run.Stats.Checkpoints {
			t.Fatalf("stopAfter=%d: observer saw checkpoints %v, journal wrote %v, ledger counts %d",
				cfg.StopAfter, obs.checkpoints, fresh, run.Stats.Checkpoints)
		}
	}

	obs := &recordingObserver{}
	run, err := Supervise(Config{Workers: 2, CheckpointEvery: 4, Observer: obs}, intSource(30, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.checkpoints) != 0 || run.Stats.Checkpoints != 0 {
		t.Fatalf("no journal, yet the observer saw checkpoints %v (ledger %d)", obs.checkpoints, run.Stats.Checkpoints)
	}
}

// CampaignStart hands the observer the run's own ledger, and the ledger
// has booked each unit by the time the observer hears it finished.
func TestObserverReadsLiveLedger(t *testing.T) {
	obs := &recordingObserver{}
	run, err := Supervise(Config{Workers: 1, Observer: obs}, intSource(12, nil))
	if err != nil {
		t.Fatal(err)
	}
	if obs.stats != &run.Stats {
		t.Fatal("CampaignStart was not handed the run's ledger")
	}
	for i, n := range obs.doneSeen {
		if n != uint64(i+1) {
			t.Fatalf("ledger read %d completed at the %d-th completion: %v", n, i+1, obs.doneSeen)
		}
	}
	if len(obs.doneSeen) != 12 {
		t.Fatalf("observer saw %d completions, want 12", len(obs.doneSeen))
	}
}
