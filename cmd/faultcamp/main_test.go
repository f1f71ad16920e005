package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ticktock/internal/campaign"
	"ticktock/internal/faultinject"
	"ticktock/internal/metrics"
	"ticktock/internal/runpack"
	"ticktock/internal/telemetry"
)

// runCLI invokes the faultcamp entry point against buffers.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestEmptyCampaignExitsDistinctly pins satellite fix 2: -n 0 used to
// silently fall back to the 500-scenario default (withDefaults maps
// N==0 to DefaultScenarios) and exit 0; now an empty campaign is a
// distinct non-zero exit with a clear message, on a channel separate
// from real failures (which exit 1).
func TestEmptyCampaignExitsDistinctly(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		code, _, stderr := runCLI(t, "-n", n)
		if code != 2 {
			t.Fatalf("-n %s: exit %d, want 2", n, code)
		}
		if !strings.Contains(stderr, "empty campaign") {
			t.Fatalf("-n %s: stderr %q lacks the empty-campaign message", n, stderr)
		}
	}
}

func TestSmallCampaignPasses(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-seed", "42", "-n", "6")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "fault-injection campaign: 6 scenarios") {
		t.Fatalf("stdout:\n%s", stdout)
	}
}

// TestKillAndResumeCLI drives the resumable manifest end to end through
// the CLI: interrupt with -stop-after, resume with a different worker
// count, and require the resumed report to be byte-identical to a
// straight-through supervised run (and to print campaign_resumed_total
// in the metrics exposition).
func TestKillAndResumeCLI(t *testing.T) {
	straightCode, straight, stderr := runCLI(t, "-seed", "42", "-n", "8", "-retries", "1")
	if straightCode != 0 {
		t.Fatalf("straight run exit %d, stderr:\n%s", straightCode, stderr)
	}

	journal := filepath.Join(t.TempDir(), "campaign.journal")
	code, _, stderr := runCLI(t, "-seed", "42", "-n", "8", "-retries", "1",
		"-workers", "2", "-resume", journal, "-stop-after", "3")
	if code != 0 {
		t.Fatalf("interrupted run exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "interrupted") || !strings.Contains(stderr, "-resume") {
		t.Fatalf("interrupted run stderr lacks resume hint:\n%s", stderr)
	}

	code, resumed, stderr := runCLI(t, "-seed", "42", "-n", "8", "-retries", "1",
		"-workers", "5", "-resume", journal, "-metrics")
	if code != 0 {
		t.Fatalf("resumed run exit %d, stderr:\n%s", code, stderr)
	}
	report, metricsPart, ok := strings.Cut(resumed, "\n\n# TYPE campaign_")
	if !ok {
		t.Fatalf("resumed output has no campaign_* metrics:\n%s", resumed)
	}
	if report+"\n" != straight {
		t.Fatalf("resumed report differs from straight run\n got:\n%s\nwant:\n%s", report, straight)
	}
	// The resume restored at least the 3 checkpointed scenarios.
	if strings.Contains(metricsPart, "resumed_total 0\n") || !strings.Contains(metricsPart, "resumed_total") {
		t.Fatalf("metrics lack a non-zero campaign_resumed_total:\ncampaign_%s", metricsPart)
	}
}

// TestChaosWedgeWithoutTimeoutRejected: a wedge waits for a
// cancellation only -timeout delivers, so without one the campaign
// would hang forever. The CLI must refuse it, naming the timeout,
// before running any scenario.
func TestChaosWedgeWithoutTimeoutRejected(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-n", "3", "-chaos", "wedge:0")
	if code == 0 {
		t.Fatalf("wedge without -timeout exited 0; stdout:\n%s", stdout)
	}
	if !strings.Contains(stderr, "timeout") {
		t.Fatalf("stderr %q does not name the missing timeout", stderr)
	}
	if stdout != "" {
		t.Fatalf("scenarios ran before the rejection:\n%s", stdout)
	}
}

// TestSupervisedStopAfterNeedsResume: -stop-after without -resume would
// stop the campaign with nowhere to continue from, throwing the
// unreached scenarios away. It is a usage error.
func TestSupervisedStopAfterNeedsResume(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-n", "4", "-stop-after", "1")
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "-resume") || stdout != "" {
		t.Fatalf("stdout %q, stderr %q", stdout, stderr)
	}
}

// TestChaosQuarantinePacks seeds a wedge and a panic into the campaign
// machinery, and requires: exit 0 (quarantine never fails the
// campaign), the supervision section in the report, and a sealed,
// verifiable bug-report pack per quarantined scenario.
func TestChaosQuarantinePacks(t *testing.T) {
	qdir := t.TempDir()
	code, stdout, stderr := runCLI(t, "-seed", "42", "-n", "6",
		"-chaos", "wedge:1,panic:4", "-timeout", "500ms", "-retries", "1",
		"-quarantine", qdir)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "quarantined=2") {
		t.Fatalf("report lacks quarantine tally:\n%s", stdout)
	}
	packs, err := runpack.List(qdir)
	if err != nil || len(packs) != 2 {
		t.Fatalf("quarantine packs: %v %v", packs, err)
	}
	for _, dir := range packs {
		if err := runpack.Verify(dir, runpack.VerifyOptions{Rerun: true}); err != nil {
			t.Fatalf("verify %s: %v", dir, err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "attempts.json"))
		if err != nil || !strings.Contains(string(raw), "failure") {
			t.Fatalf("attempts evidence in %s: %v", dir, err)
		}
	}
}

// TestChaosQuarantinePacksReproducible runs the same crashing campaign
// twice in one process: both runs must seal the crash under the same
// pack name, and the sealed stack must hold nothing that depends on the
// run or the host — no goroutine id, no address or PC offset, no
// absolute path.
func TestChaosQuarantinePacksReproducible(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(wd))
	var names []string
	for run := 0; run < 2; run++ {
		qdir := t.TempDir()
		code, _, stderr := runCLI(t, "-seed", "42", "-n", "6",
			"-chaos", "panic:4", "-retries", "1", "-quarantine", qdir)
		if code != 0 {
			t.Fatalf("run %d: exit %d, stderr:\n%s", run, code, stderr)
		}
		packs, err := runpack.List(qdir)
		if err != nil || len(packs) != 1 {
			t.Fatalf("run %d: quarantine packs: %v %v", run, packs, err)
		}
		names = append(names, filepath.Base(packs[0]))
		raw, err := os.ReadFile(filepath.Join(packs[0], "attempts.json"))
		if err != nil {
			t.Fatal(err)
		}
		var attempts []campaign.Attempt
		if err := json.Unmarshal(raw, &attempts); err != nil {
			t.Fatal(err)
		}
		for _, a := range attempts {
			if a.Failure != campaign.FailCrashed || !strings.Contains(a.Stack, "faultinject") {
				t.Fatalf("run %d: crash sealed without its stack: %+v", run, a)
			}
			for _, bad := range []string{"goroutine", "0x", root, "\t/"} {
				if strings.Contains(a.Stack, bad) {
					t.Fatalf("run %d: stack holds %q:\n%s", run, bad, a.Stack)
				}
			}
		}
	}
	if names[0] != names[1] {
		t.Fatalf("one crash sealed as two packs: %s and %s", names[0], names[1])
	}
}

// TestSupervisedRunpackSealsAndVerifies seals a chaos campaign with
// -runpack and requires the full chain — including the -rerun
// re-derivation through the supervised receipt command — to verify.
func TestSupervisedRunpackSealsAndVerifies(t *testing.T) {
	root := t.TempDir()
	code, _, stderr := runCLI(t, "-seed", "42", "-n", "6",
		"-chaos", "panic:2", "-retries", "1", "-runpack", root)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	packs, err := runpack.List(root)
	if err != nil || len(packs) != 1 {
		t.Fatalf("packs: %v %v", packs, err)
	}
	if err := runpack.Verify(packs[0], runpack.VerifyOptions{Rerun: true}); err != nil {
		t.Fatalf("verify -rerun: %v", err)
	}
	receipt, err := os.ReadFile(filepath.Join(packs[0], runpack.ReceiptName))
	if err != nil || !strings.Contains(string(receipt), "-chaos") {
		t.Fatalf("receipt should carry the chaos spec: %s (%v)", receipt, err)
	}
}

// lockedBuf is a goroutine-safe writer for streaming the CLI's stderr
// while the campaign runs in a background goroutine.
type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestServeAnswersMidRun drives the live telemetry surface end to end:
// a campaign with one wedged scenario (guaranteeing a minimum wall
// time) runs with -serve, and while it runs the test scrapes /healthz,
// /metrics, /progress and /timeline off the printed address and
// validates each payload. The campaign must still exit clean.
func TestServeAnswersMidRun(t *testing.T) {
	var stderr lockedBuf
	var stdout lockedBuf
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-seed", "42", "-n", "8", "-workers", "2",
			"-chaos", "wedge:0", "-timeout", "3s",
			"-serve", "127.0.0.1:0", "-progress",
		}, &stdout, &stderr)
	}()

	// The bound address is printed before the campaign starts.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no telemetry address printed; stderr:\n%s", stderr.String())
		}
		if _, rest, ok := strings.Cut(stderr.String(), "telemetry: serving http://"); ok {
			addr = strings.TrimSpace(strings.SplitN(rest, "\n", 2)[0])
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	get := func(path string) (string, *http.Response) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), resp
	}

	if body, _ := get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz: %q", body)
	}

	body, resp := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("/metrics content type %q, want %q", ct, metrics.ContentType)
	}
	if _, err := metrics.ParsePrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}

	body, _ = get("/progress")
	var pr telemetry.Progress
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatalf("/progress is not valid JSON: %v\n%s", err, body)
	}
	if pr.Kind != faultinject.SupervisedKind || pr.Units != 8 || pr.Workers != 2 {
		t.Fatalf("/progress fields: %+v", pr)
	}
	if !pr.Running {
		t.Fatalf("/progress mid-run reports not running: %+v", pr)
	}

	body, _ = get("/timeline")
	var tl struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tl); err != nil {
		t.Fatalf("/timeline is not valid JSON: %v", err)
	}
	if len(tl.TraceEvents) == 0 {
		t.Fatal("/timeline has no events mid-run")
	}

	code := <-done
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "fault-injection campaign: 8 scenarios") {
		t.Fatalf("stdout:\n%s", stdout.String())
	}
}
