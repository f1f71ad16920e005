package runpack

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ticktock/internal/apps"
	"ticktock/internal/campaign"
	"ticktock/internal/difftest"
	"ticktock/internal/faultinject"
	"ticktock/internal/kernel"
	"ticktock/internal/monolithic"
)

// receiptPrefix versions the receipt line format.
const receiptPrefix = "runpack/1"

// Receipt is the one-line provenance record written next to the
// manifest. It names the manifest (which in turn names every member),
// the result digest, and the exact command that re-derives the result —
// the minimal set of facts needed to check a pack without trusting it.
type Receipt struct {
	Kind     string
	Manifest string // sha256 hex of MANIFEST.json
	Result   string // sha256 hex of the result member
	Command  string // in-process replay command, e.g. "faultcamp -seed 7 -n 20"
}

// FormatReceipt renders the canonical receipt line (without trailing
// newline):
//
//	runpack/1 kind=faultcamp manifest=sha256:<hex> result=sha256:<hex> cmd="faultcamp -seed 7 -n 20"
func FormatReceipt(r Receipt) string {
	return fmt.Sprintf("%s kind=%s manifest=sha256:%s result=sha256:%s cmd=%s",
		receiptPrefix, r.Kind, r.Manifest, r.Result, strconv.Quote(r.Command))
}

// ParseReceipt parses a receipt line back into its fields, rejecting
// unknown versions, malformed fields and missing keys.
func ParseReceipt(line string) (Receipt, error) {
	var r Receipt
	rest, ok := strings.CutPrefix(line, receiptPrefix+" ")
	if !ok {
		return r, fmt.Errorf("runpack: receipt does not start with %q: %q", receiptPrefix, line)
	}
	seen := map[string]bool{}
	for rest != "" {
		rest = strings.TrimLeft(rest, " ")
		if rest == "" {
			break
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return r, fmt.Errorf("runpack: malformed receipt near %q", rest)
		}
		key := rest[:eq]
		rest = rest[eq+1:]
		var val string
		if strings.HasPrefix(rest, `"`) {
			// Quoted value: find its end with the strconv grammar.
			q, err := scanQuoted(rest)
			if err != nil {
				return r, fmt.Errorf("runpack: receipt key %s: %w", key, err)
			}
			val, err = strconv.Unquote(rest[:q])
			if err != nil {
				return r, fmt.Errorf("runpack: receipt key %s: %w", key, err)
			}
			rest = rest[q:]
		} else {
			end := strings.IndexByte(rest, ' ')
			if end < 0 {
				end = len(rest)
			}
			val = rest[:end]
			rest = rest[end:]
		}
		if seen[key] {
			return r, fmt.Errorf("runpack: receipt repeats key %s", key)
		}
		seen[key] = true
		switch key {
		case "kind":
			r.Kind = val
		case "manifest":
			hex, err := cutDigest(val)
			if err != nil {
				return r, fmt.Errorf("runpack: receipt manifest: %w", err)
			}
			r.Manifest = hex
		case "result":
			hex, err := cutDigest(val)
			if err != nil {
				return r, fmt.Errorf("runpack: receipt result: %w", err)
			}
			r.Result = hex
		case "cmd":
			r.Command = val
		default:
			return r, fmt.Errorf("runpack: receipt has unknown key %s", key)
		}
	}
	for _, need := range []string{"kind", "manifest", "result", "cmd"} {
		if !seen[need] {
			return r, fmt.Errorf("runpack: receipt is missing key %s", need)
		}
	}
	return r, nil
}

// scanQuoted returns the length of the leading Go-quoted string in s.
func scanQuoted(s string) (int, error) {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i + 1, nil
		}
	}
	return 0, fmt.Errorf("unterminated quoted value")
}

// cutDigest strips the sha256: prefix and validates the hex length.
func cutDigest(v string) (string, error) {
	hex, ok := strings.CutPrefix(v, "sha256:")
	if !ok {
		return "", fmt.Errorf("digest %q lacks sha256: prefix", v)
	}
	if len(hex) != 64 {
		return "", fmt.Errorf("digest %q is not 64 hex chars", hex)
	}
	for _, c := range hex {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("digest %q is not lowercase hex", hex)
		}
	}
	return hex, nil
}

// ExecuteReceipt runs the receipt's command in-process and returns the
// re-derived result bytes — the bytes that must hash to Receipt.Result.
// The simulated boards are deterministic, so this is exact, not
// approximate: a mismatch means either the pack or the code changed.
func ExecuteReceipt(r Receipt) ([]byte, error) {
	argv, err := splitCommand(r.Command)
	if err != nil {
		return nil, err
	}
	if len(argv) == 0 {
		return nil, fmt.Errorf("runpack: receipt has an empty command")
	}
	exec, ok := executors[argv[0]]
	if !ok {
		return nil, fmt.Errorf("runpack: no in-process executor for command %q", argv[0])
	}
	return exec(argv[1:])
}

// splitCommand tokenizes a command string, honouring double quotes.
func splitCommand(s string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inWord, inQuote := false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inQuote = !inQuote
			inWord = true
		case c == ' ' && !inQuote:
			if inWord {
				out = append(out, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteByte(c)
			inWord = true
		}
	}
	if inQuote {
		return nil, fmt.Errorf("runpack: unterminated quote in command %q", s)
	}
	if inWord {
		out = append(out, cur.String())
	}
	return out, nil
}

// executors maps a receipt command name to its in-process re-derivation.
// Each mirrors the corresponding cmd/ tool's result exactly; none of
// them touch the filesystem or the wall clock.
var executors = map[string]func(args []string) ([]byte, error){
	KindFaultcamp: executeFaultcamp,
	KindDifftest:  executeDifftest,
	KindReplay:    executeReplay,
}

// FaultcampCommand renders the receipt command that re-derives rep, run
// under supervision settings sup. A report without a supervision
// section renders the same bytes under any settings, so it gets the
// plain "faultcamp -seed N -n N" command; one with a supervision section
// also carries the chaos spec, retry budget and timeout, which are part
// of what re-derives its result bytes.
func FaultcampCommand(rep *faultinject.Report, sup campaign.Config) string {
	cfg := rep.Config
	cmd := fmt.Sprintf("faultcamp -seed %d -n %d", cfg.Seed, cfg.N)
	if rep.Sup == nil {
		return cmd
	}
	if cfg.Chaos != "" {
		cmd += fmt.Sprintf(" -chaos %q", cfg.Chaos)
	}
	if sup.Retries > 0 {
		cmd += fmt.Sprintf(" -retries %d", sup.Retries)
	}
	if sup.Timeout > 0 {
		cmd += fmt.Sprintf(" -timeout %s", sup.Timeout)
	}
	return cmd
}

func executeFaultcamp(args []string) ([]byte, error) {
	var cfg faultinject.Config
	var sup campaign.Config
	if err := parseFlags(args, map[string]func(string) error{
		"-seed":    func(v string) (err error) { cfg.Seed, err = strconv.ParseInt(v, 10, 64); return },
		"-n":       func(v string) (err error) { cfg.N, err = strconv.Atoi(v); return },
		"-chaos":   func(v string) error { cfg.Chaos = v; return nil },
		"-retries": func(v string) (err error) { sup.Retries, err = strconv.Atoi(v); return },
		"-timeout": func(v string) (err error) { sup.Timeout, err = time.ParseDuration(v); return },
	}); err != nil {
		return nil, err
	}
	if cfg.N == 0 {
		return nil, fmt.Errorf("runpack: faultcamp command needs -n")
	}
	rep, _, err := faultinject.RunSupervised(cfg, sup, nil)
	if err != nil {
		return nil, err
	}
	return []byte(rep.Text()), nil
}

// DifftestCommand renders the receipt command for a campaign config.
func DifftestCommand(cfg difftest.Config) string {
	if b := bugName(cfg); b != "" {
		return "difftest -bug " + b
	}
	return "difftest"
}

func executeDifftest(args []string) ([]byte, error) {
	var bug string
	if err := parseFlags(args, map[string]func(string) error{
		"-bug": func(v string) error { bug = v; return nil },
	}); err != nil {
		return nil, err
	}
	cfg := difftest.Config{NoTraceDump: true}
	if bug != "" {
		b, err := ParseBug(bug)
		if err != nil {
			return nil, err
		}
		cfg.Bugs = b
	}
	rows := difftest.RunAllConfig(cfg)
	return []byte(difftest.Table(rows)), nil
}

// ReplayCommand renders the receipt command for a single recorded case.
func ReplayCommand(caseName string, fl kernel.Flavour) string {
	return fmt.Sprintf("replay -record %s -flavour %s", caseName, fl)
}

func executeReplay(args []string) ([]byte, error) {
	var caseName, flavour string
	if err := parseFlags(args, map[string]func(string) error{
		"-record":  func(v string) error { caseName = v; return nil },
		"-flavour": func(v string) error { flavour = v; return nil },
	}); err != nil {
		return nil, err
	}
	tc, err := findCase(caseName)
	if err != nil {
		return nil, err
	}
	fl, err := ParseFlavour(flavour)
	if err != nil {
		return nil, err
	}
	_, rec, err := difftest.RunRecorded(tc, fl, difftest.Config{})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// parseFlags walks "-flag value" pairs against a handler table.
func parseFlags(args []string, handlers map[string]func(string) error) error {
	for i := 0; i < len(args); i++ {
		h, ok := handlers[args[i]]
		if !ok {
			return fmt.Errorf("runpack: unknown command flag %q", args[i])
		}
		if i+1 >= len(args) {
			return fmt.Errorf("runpack: command flag %s needs a value", args[i])
		}
		i++
		if err := h(args[i]); err != nil {
			return fmt.Errorf("runpack: command flag %s: %w", args[i-1], err)
		}
	}
	return nil
}

// findCase looks up a release-test case by name.
func findCase(name string) (apps.TestCase, error) {
	if name == "" {
		return apps.TestCase{}, fmt.Errorf("runpack: replay command needs -record CASE")
	}
	for _, tc := range apps.All() {
		if tc.Name == name {
			return tc, nil
		}
	}
	return apps.TestCase{}, fmt.Errorf("runpack: unknown release-test case %q", name)
}

// ParseFlavour parses a kernel flavour name as it appears in receipt
// commands and pack configs.
func ParseFlavour(name string) (kernel.Flavour, error) {
	switch name {
	case "ticktock":
		return kernel.FlavourTickTock, nil
	case "tock":
		return kernel.FlavourTock, nil
	default:
		return 0, fmt.Errorf("runpack: unknown kernel flavour %q", name)
	}
}

// bugName names the single enabled baseline bug ("" when none) — the
// inverse of ParseBug, shared by receipt commands and distilled packs.
func bugName(cfg difftest.Config) string {
	switch {
	case cfg.Bugs.GrantOverlap:
		return "grant-overlap"
	case cfg.Bugs.BrkUnderflow:
		return "brk-underflow"
	case cfg.Bugs.MissedModeSwitch:
		return "missed-mode-switch"
	}
	return ""
}

// ParseBug resolves a published baseline bug by name — the inverse of
// bugName, shared with the CLIs and distilled regression packs.
func ParseBug(name string) (monolithic.BugSet, error) {
	var b monolithic.BugSet
	switch name {
	case "grant-overlap":
		b.GrantOverlap = true
	case "brk-underflow":
		b.BrkUnderflow = true
	case "missed-mode-switch":
		b.MissedModeSwitch = true
	default:
		return b, fmt.Errorf("runpack: unknown baseline bug %q", name)
	}
	return b, nil
}
