package scrape

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"ticktock/internal/campaign"
	"ticktock/internal/metrics"
	"ticktock/internal/telemetry"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// The endpoints are scraped while a real supervised campaign is held
// at its second unit: one worker, a journal checkpointing after every
// unit, and unit 0 published to the live registry.
func TestServerEndpoints(t *testing.T) {
	p := telemetry.New()
	srv, err := Serve("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	held, release := make(chan struct{}), make(chan struct{})
	src := campaign.Source[int]{
		N: 3, Kind: "srv-test", Fingerprint: []byte("srv-test"),
		Run: func(ctx context.Context, i int) (int, error) {
			p.UnitObservation(i, func(r *metrics.Registry) { r.Counter("served_total").Inc() })
			if i == 1 {
				close(held)
				<-release
			}
			return i, nil
		},
		Encode: func(v int) ([]byte, error) { return json.Marshal(v) },
		Decode: func(b []byte) (v int, err error) { err = json.Unmarshal(b, &v); return },
	}
	type result struct {
		run *campaign.Run[int]
		err error
	}
	done := make(chan result, 1)
	go func() {
		run, err := campaign.Supervise(campaign.Config{
			Workers: 1, Clock: &campaign.FakeClock{}, Observer: p,
			Journal: filepath.Join(t.TempDir(), "campaign.journal"), CheckpointEvery: 1,
		}, src)
		done <- result{run, err}
	}()
	<-held

	body, ct := get(t, base+"/healthz")
	if strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz body %q", body)
	}
	_ = ct

	body, ct = get(t, base+"/metrics")
	if ct != metrics.ContentType {
		t.Fatalf("metrics content type %q, want %q", ct, metrics.ContentType)
	}
	if !strings.Contains(body, "served_total 1") {
		t.Fatalf("live metric missing from scrape:\n%s", body)
	}
	if _, err := metrics.ParsePrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("scrape is not parseable exposition text: %v", err)
	}

	body, ct = get(t, base+"/progress")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("progress content type %q", ct)
	}
	var pr telemetry.Progress
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatalf("progress is not valid JSON: %v\n%s", err, body)
	}
	if pr.Kind != "srv-test" || pr.Done != 1 || pr.OK != 1 || pr.Checkpoints != 1 || pr.Units != 3 || !pr.Running {
		t.Fatalf("progress wrong: %+v", pr)
	}

	body, ct = get(t, base+"/timeline")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("timeline content type %q", ct)
	}
	var tl struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tl); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if len(tl.TraceEvents) == 0 {
		t.Fatal("timeline has no events")
	}

	close(release)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	body, _ = get(t, base+"/progress")
	pr = telemetry.Progress{}
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatalf("progress is not valid JSON: %v\n%s", err, body)
	}
	st := res.run.Stats
	if pr.Running || pr.Done != st.Resumed+st.Completed || pr.OK != pr.Done-st.Quarantined ||
		pr.Checkpoints != st.Checkpoints || pr.Units != int(st.Units) {
		t.Fatalf("final progress %+v disagrees with the ledger %+v", pr, st)
	}

	body, _ = get(t, base+"/debug/pprof/")
	if !strings.Contains(body, "goroutine") || !strings.Contains(body, "profile") {
		t.Fatalf("pprof index lists no profiles:\n%s", body)
	}
	body, _ = get(t, base+"/debug/pprof/profile?seconds=1")
	zr, err := gzip.NewReader(strings.NewReader(body))
	if err != nil {
		t.Fatalf("CPU profile is not gzip-compressed: %v", err)
	}
	if raw, err := io.ReadAll(zr); err != nil || len(raw) == 0 {
		t.Fatalf("CPU profile does not decompress: %d bytes, %v", len(raw), err)
	}
}
