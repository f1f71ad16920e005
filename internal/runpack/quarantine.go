package runpack

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"ticktock/internal/campaign"
	"ticktock/internal/faultinject"
)

// KindQuarantine packs are sealed bug reports for poison scenarios: a
// scenario the campaign supervisor retried to exhaustion and gave up
// on. The campaign itself continues — the pack is the standing,
// verifiable record of what was skipped and why.
//
// The result member is derived purely from the receipt command's flags
// (seed, scenario index, failure class, attempt count), so `runpack
// verify -rerun` re-derives it without re-running the poison scenario —
// which, being poison, might wedge or crash the verifier. The
// nondeterministic evidence (per-attempt errors and panic stacks) lives
// in the separate attempts.json member, content-addressed by the
// manifest like any other member but outside the re-derivation chain.
const KindQuarantine = "quarantine"

// QuarantineCommand renders the receipt command for one quarantined
// scenario.
func QuarantineCommand(cfg faultinject.Config, index int, failure string, attempts int) string {
	return fmt.Sprintf("quarantine -seed %d -n %d -index %d -failure %s -attempts %d",
		cfg.Seed, cfg.N, index, failure, attempts)
}

// quarantineReport renders the deterministic bug-report text from
// exactly the facts the receipt command carries.
func quarantineReport(seed int64, n, index int, failure string, attempts int) (string, error) {
	if index < 0 || index >= n {
		return "", fmt.Errorf("runpack: quarantine index %d out of range [0,%d)", index, n)
	}
	sc := faultinject.GenScenarios(faultinject.Config{Seed: seed, N: n})[index]
	var b strings.Builder
	fmt.Fprintf(&b, "quarantined scenario %s\n", sc.Label())
	fmt.Fprintf(&b, "campaign: seed=%d n=%d\n", seed, n)
	fmt.Fprintf(&b, "verdict: %s after %d attempts — excluded from campaign aggregates\n", failure, attempts)
	fmt.Fprintf(&b, "scenario: app=%s kind=%s quantum=%d nth=%d entry=%d quarantine-policy=%v monolithic=%v chip=%d\n",
		sc.App, sc.Kind, sc.Quantum, sc.Nth, sc.Entry, sc.Quarantine, sc.Monolithic, sc.Chip)
	fmt.Fprintf(&b, "reproduce: faultcamp -seed %d -n %d (scenario index %d)\n", seed, n, index)
	return b.String(), nil
}

// EmitQuarantine seals one quarantined outcome of a supervised fault
// campaign as a content-addressed bug-report pack under root.
func EmitQuarantine(root string, cfg faultinject.Config, o campaign.Outcome[faultinject.Result]) (dir, receipt string, err error) {
	if o.Status != campaign.StatusQuarantined {
		return "", "", fmt.Errorf("runpack: outcome %s is %v, not quarantined", o.Key, o.Status)
	}
	failure := o.FinalFailure()
	cmd := QuarantineCommand(cfg, o.Index, failure, len(o.Attempts))
	result, err := quarantineReport(cfg.Seed, cfg.N, o.Index, failure, len(o.Attempts))
	if err != nil {
		return "", "", err
	}
	evidence, err := json.MarshalIndent(o.Attempts, "", "  ")
	if err != nil {
		return "", "", err
	}
	b := NewBuilder(KindQuarantine, cmd, packConfig(cfg))
	b.AddFile("result.txt", []byte(result))
	b.AddFile("attempts.json", append(evidence, '\n'))
	b.SetResult("result.txt")
	return b.Seal(root)
}

func executeQuarantine(args []string) ([]byte, error) {
	var seed int64
	var n, index, attempts int
	var failure string
	index = -1
	if err := parseFlags(args, map[string]func(string) error{
		"-seed":     func(v string) (err error) { seed, err = strconv.ParseInt(v, 10, 64); return },
		"-n":        func(v string) (err error) { n, err = strconv.Atoi(v); return },
		"-index":    func(v string) (err error) { index, err = strconv.Atoi(v); return },
		"-failure":  func(v string) error { failure = v; return nil },
		"-attempts": func(v string) (err error) { attempts, err = strconv.Atoi(v); return },
	}); err != nil {
		return nil, err
	}
	if n == 0 || index < 0 || failure == "" {
		return nil, fmt.Errorf("runpack: quarantine command needs -n, -index and -failure")
	}
	out, err := quarantineReport(seed, n, index, failure, attempts)
	if err != nil {
		return nil, err
	}
	return []byte(out), nil
}

func init() {
	executors[KindQuarantine] = executeQuarantine
}
