package campaign

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The journal is the campaign's resumable manifest: a JSONL file whose
// first line binds it to one exact campaign (kind, unit count and the
// sha256 of the config fingerprint — the same content-addressing scheme
// runpack manifests use), followed by one fsync'd record per completed
// unit, and a checkpoint record every CheckpointEvery completions
// summarizing the completed index ranges and an order-independent
// digest of the streaming aggregate state.
//
// Crash model: records are appended and fsync'd one at a time, so a
// kill can lose at most the records since the last fsync and can tear
// at most the final line. On resume the torn tail is detected and
// truncated, the surviving records are restored verbatim (each one
// carries the sha256 of its result payload, so corruption fails
// closed), and only the units with no surviving record are re-run.
// Because unit results are pure functions of the campaign config and
// the unit index, the resumed aggregate is byte-identical to an
// uninterrupted run's at any worker count.

// JournalVersion is the journal line format version.
const JournalVersion = 1

// journalHeader is line 1.
type journalHeader struct {
	Campaign  int    `json:"campaign"` // JournalVersion
	Kind      string `json:"kind"`
	Units     int    `json:"units"`
	ConfigSHA string `json:"config_sha256"`
}

// unitRecord is one completed unit. Result holds the Source.Encode
// payload verbatim (valid JSON) for StatusOK records, and is absent for
// quarantined ones; ResultSHA covers it.
type unitRecord struct {
	Unit      int             `json:"unit"`
	Status    Status          `json:"status"`
	Attempts  []Attempt       `json:"attempts,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	ResultSHA string          `json:"result_sha256,omitempty"`
}

// checkpointRecord summarizes progress so far: the completed unit
// count, the completed index set as compact ranges, and an
// order-independent digest over every completed record (sorted by
// index), so a resumed run can prove its restored aggregate state
// matches what the writer saw.
type checkpointRecord struct {
	Checkpoint bool   `json:"checkpoint"`
	Completed  int    `json:"completed"`
	Ranges     string `json:"ranges"`
	AggSHA     string `json:"agg_sha256"`
}

// journal is the open manifest. All appends serialize under mu; the
// restored map is read-only after open.
type journal struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	every int

	// restored maps unit index -> surviving record from a previous run.
	restored map[int]unitRecord
	// digests maps every completed unit (restored + this run) to the
	// sha256 of its record's canonical digest input — the checkpoint
	// aggregate state.
	digests map[int]string
	sinceCk int
	err     error
}

// sha256hex digests bytes — the same content-address form runpack uses.
func sha256hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// recordDigest is the per-unit contribution to the checkpoint
// aggregate: status, attempt failures and the result payload digest.
func recordDigest(rec unitRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "unit=%d;status=%d;", rec.Unit, rec.Status)
	for _, a := range rec.Attempts {
		fmt.Fprintf(&b, "fail=%s;", a.Failure)
	}
	fmt.Fprintf(&b, "result=%s", rec.ResultSHA)
	return sha256hex([]byte(b.String()))
}

// openJournal opens or creates the manifest at path. An existing
// journal must belong to exactly this campaign (kind, unit count,
// config digest); its surviving records are restored and its torn tail,
// if any, truncated so appends continue from a clean line boundary.
func openJournal(path, kind string, units int, fingerprint []byte, every int) (*journal, error) {
	j := &journal{
		path:     path,
		every:    every,
		restored: make(map[int]unitRecord),
		digests:  make(map[int]string),
	}
	header := journalHeader{
		Campaign:  JournalVersion,
		Kind:      kind,
		Units:     units,
		ConfigSHA: sha256hex(fingerprint),
	}

	raw, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err) || (err == nil && len(raw) == 0):
		// Fresh journal: write and sync the header first, so a crash
		// during the first unit still leaves a resumable file.
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("campaign: journal: %w", err)
		}
		j.f = f
		if err := j.writeLine(header); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	case err != nil:
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}

	keep, err := j.load(raw, header)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	if keep < int64(len(raw)) {
		// Torn tail from the interrupted writer: truncate back to the
		// last intact line so the next append starts clean.
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign: journal: truncating torn tail: %w", err)
		}
	}
	j.f = f
	return j, nil
}

// load parses an existing journal, validates the header against the
// campaign being run, restores intact unit records and returns the byte
// offset of the end of the last intact line.
func (j *journal) load(raw []byte, want journalHeader) (keep int64, err error) {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	lineStart := int64(0)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		lineEnd := lineStart + int64(len(line)) + 1 // +1 for '\n'
		if lineEnd > int64(len(raw)) || raw[lineEnd-1] != '\n' {
			// Final line has no newline: torn mid-append. Drop it.
			break
		}
		if first {
			first = false
			var h journalHeader
			if err := json.Unmarshal(line, &h); err != nil {
				return 0, fmt.Errorf("campaign: journal %s: bad header: %w", j.path, err)
			}
			if h.Campaign != want.Campaign {
				return 0, fmt.Errorf("campaign: journal %s: version %d, want %d", j.path, h.Campaign, want.Campaign)
			}
			if h.Kind != want.Kind || h.Units != want.Units || h.ConfigSHA != want.ConfigSHA {
				return 0, fmt.Errorf("campaign: journal %s belongs to a different campaign (kind=%s units=%d config=%s; this run is kind=%s units=%d config=%s) — refusing to resume",
					j.path, h.Kind, h.Units, h.ConfigSHA[:12], want.Kind, want.Units, want.ConfigSHA[:12])
			}
			keep = lineEnd
			lineStart = lineEnd
			continue
		}
		if bytes.Contains(line, []byte(`"checkpoint":true`)) {
			var ck checkpointRecord
			if err := json.Unmarshal(line, &ck); err != nil {
				break // corrupt record: treat as torn from here on
			}
			keep = lineEnd
			lineStart = lineEnd
			continue
		}
		var rec unitRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // corrupt record: treat as torn from here on
		}
		if rec.Unit < 0 || rec.Unit >= want.Units {
			return 0, fmt.Errorf("campaign: journal %s: unit %d out of range [0,%d)", j.path, rec.Unit, want.Units)
		}
		if rec.Status == StatusOK {
			if got := sha256hex(rec.Result); got != rec.ResultSHA {
				return 0, fmt.Errorf("campaign: journal %s: unit %d result digest mismatch (journal %s, payload %s) — journal corrupted",
					j.path, rec.Unit, rec.ResultSHA[:12], got[:12])
			}
		}
		j.restored[rec.Unit] = rec
		j.digests[rec.Unit] = recordDigest(rec)
		keep = lineEnd
		lineStart = lineEnd
	}
	if first {
		return 0, fmt.Errorf("campaign: journal %s: missing header", j.path)
	}
	return keep, nil
}

// writeLine marshals one record, appends it and fsyncs — the record is
// durable before the worker moves on.
func (j *journal) writeLine(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("campaign: journal %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("campaign: journal %s: fsync: %w", j.path, err)
	}
	return nil
}

// append books one newly-completed unit: digest its payload, write its
// record durably, and drop a checkpoint record every `every`
// completions. It returns the checkpoint record it wrote, if any.
func (j *journal) append(rec unitRecord, st *Stats) (*checkpointRecord, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if rec.Status == StatusOK {
		if !json.Valid(rec.Result) {
			return nil, fmt.Errorf("campaign: journal: unit %d result payload is not valid JSON", rec.Unit)
		}
		rec.ResultSHA = sha256hex(rec.Result)
	}
	if err := j.writeLine(rec); err != nil {
		return nil, err
	}
	j.digests[rec.Unit] = recordDigest(rec)
	j.sinceCk++
	if j.sinceCk >= j.every {
		return j.checkpoint(st)
	}
	return nil, nil
}

// checkpoint writes the progress summary record and books it in st.
// Caller holds mu.
func (j *journal) checkpoint(st *Stats) (*checkpointRecord, error) {
	idx := make([]int, 0, len(j.digests))
	for i := range j.digests {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	agg := sha256.New()
	for _, i := range idx {
		fmt.Fprintf(agg, "%d:%s;", i, j.digests[i])
	}
	ck := checkpointRecord{
		Checkpoint: true,
		Completed:  len(idx),
		Ranges:     formatRanges(idx),
		AggSHA:     hex.EncodeToString(agg.Sum(nil)),
	}
	if err := j.writeLine(ck); err != nil {
		return nil, err
	}
	j.sinceCk = 0
	atomic.AddUint64(&st.Checkpoints, 1)
	return &ck, nil
}

// finish writes a final checkpoint (if anything completed since the
// last one), returning it, and surfaces any append error swallowed
// mid-run.
func (j *journal) finish(st *Stats) (*checkpointRecord, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return nil, j.err
	}
	if j.sinceCk > 0 {
		return j.checkpoint(st)
	}
	return nil, nil
}

// fail records the first journal error; the campaign keeps running.
func (j *journal) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = err
	}
}

// close releases the file handle.
func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// formatRanges renders a sorted index set as compact ranges
// ("0-12,14,16-40").
func formatRanges(idx []int) string {
	var b strings.Builder
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && idx[j+1] == idx[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if i == j {
			fmt.Fprintf(&b, "%d", idx[i])
		} else {
			fmt.Fprintf(&b, "%d-%d", idx[i], idx[j])
		}
		i = j + 1
	}
	return b.String()
}
