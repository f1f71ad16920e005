// Command replay is the time-travel debugger for flight recordings:
// record a release-test case to a .ttfr file, then rewind the recording
// to any simulated cycle, step forward snapshot by snapshot, and diff
// two recordings to the first divergent field — all without re-running
// the kernel, so an injected fault or a heisenbug replays exactly as it
// was captured.
//
// Usage:
//
//	replay -record CASE [-flavour ticktock|tock] -o FILE
//	replay -in FILE [-to-cycle N] [-step K] [-format table|json]
//	replay -diff A,B [-format table|json]
//
// Examples:
//
//	replay -record mpu_walk_region -o clean.ttfr
//	replay -in clean.ttfr -to-cycle 12000            # machine state at cycle 12000
//	replay -in clean.ttfr -to-cycle 12000 -step 3    # ...then 3 quanta later
//	replay -diff clean.ttfr,buggy.ttfr               # bisect to first divergence
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"ticktock/internal/apps"
	"ticktock/internal/difftest"
	"ticktock/internal/flightrec"
	"ticktock/internal/kernel"
	"ticktock/internal/runpack"
)

func main() {
	record := flag.String("record", "", "record this release-test case to -o")
	flavour := flag.String("flavour", "ticktock", "kernel flavour when recording: ticktock or tock")
	outPath := flag.String("o", "", "output file for -record")
	packDir := flag.String("runpack", "", "seal the recording into a content-addressed artifact pack under DIR")
	inPath := flag.String("in", "", "recording to replay")
	toCycle := flag.Uint64("to-cycle", ^uint64(0), "replay to the last snapshot at or before this cycle")
	step := flag.Int("step", 0, "after positioning, step forward this many snapshots")
	diff := flag.String("diff", "", "two recordings A,B to bisect to their first divergence")
	format := flag.String("format", "table", "output format: table or json")
	flag.Parse()

	switch {
	case *record != "":
		if err := doRecord(*record, *flavour, *outPath, *packDir); err != nil {
			fail(err)
		}
	case *diff != "":
		if err := doDiff(*diff, *format); err != nil {
			fail(err)
		}
	case *inPath != "":
		if err := doReplay(*inPath, *toCycle, *step, *format); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "replay: %v\n", err)
	os.Exit(1)
}

func doRecord(caseName, flavour, outPath, packDir string) error {
	if outPath == "" && packDir == "" {
		return fmt.Errorf("-record needs -o FILE or -runpack DIR")
	}
	tc, ok := apps.Find(caseName)
	if !ok {
		return fmt.Errorf("unknown case %q", caseName)
	}
	fl, ok := kernel.ParseFlavour(flavour)
	if !ok {
		return fmt.Errorf("unknown flavour %q", flavour)
	}
	k, rec, err := difftest.RunRecorded(tc, fl, difftest.Config{})
	if err != nil {
		return err
	}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.Encode(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recorded %s on %s: %d snapshots, %d events, final cycle %d -> %s\n",
			tc.Name, fl, len(rec.Snapshots), len(rec.Events), k.Meter().Cycles(), outPath)
	}
	if packDir != "" {
		dir, receipt, err := runpack.EmitReplay(packDir, tc.Name, fl, rec)
		if err != nil {
			return fmt.Errorf("sealing runpack: %w", err)
		}
		fmt.Fprintf(os.Stderr, "runpack: %s\n%s\n", dir, receipt)
	}
	return nil
}

func load(path string) (*flightrec.Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rec, err := flightrec.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// stateView is the JSON shape of one replayed machine state.
type stateView struct {
	Port      string            `json:"port"`
	Snapshot  int               `json:"snapshot"`
	Cycle     uint64            `json:"cycle"`
	Label     string            `json:"label"`
	MemDigest string            `json:"mem_digest"`
	Pages     int               `json:"pages"`
	Fields    map[string]uint64 `json:"fields"`
}

func view(rec *flightrec.Recording, s *flightrec.State) stateView {
	v := stateView{
		Port:      rec.Port,
		Snapshot:  s.Index,
		Cycle:     s.Cycle,
		Label:     s.Label,
		MemDigest: fmt.Sprintf("0x%016x", s.MemDigest()),
		Pages:     len(s.PageBases()),
		Fields:    make(map[string]uint64),
	}
	for _, f := range s.Fields() {
		v.Fields[f.Name] = f.Val
	}
	return v
}

func doReplay(path string, toCycle uint64, step int, format string) error {
	rec, err := load(path)
	if err != nil {
		return err
	}
	if toCycle > rec.FinalCycle() {
		toCycle = rec.FinalCycle()
	}
	s, err := rec.ReplayTo(toCycle)
	if err != nil {
		return err
	}
	for i := 0; i < step; i++ {
		if !s.Step() {
			fmt.Fprintf(os.Stderr, "replay: end of recording after %d steps\n", i)
			break
		}
	}
	switch format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(view(rec, s))
	case "table":
		printState(rec, s)
		return nil
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

func printState(rec *flightrec.Recording, s *flightrec.State) {
	fmt.Printf("port %s  snapshot %d/%d  cycle %d  label %q\n",
		rec.Port, s.Index, len(rec.Snapshots)-1, s.Cycle, s.Label)
	fmt.Printf("memory: %d pages, digest 0x%016x\n\n", len(s.PageBases()), s.MemDigest())
	fields := s.Fields()
	sort.Slice(fields, func(i, j int) bool { return fields[i].Name < fields[j].Name })
	w := 0
	for _, f := range fields {
		if len(f.Name) > w {
			w = len(f.Name)
		}
	}
	for _, f := range fields {
		fmt.Printf("  %-*s  0x%08x\n", w, f.Name, f.Val)
	}
}

func doDiff(pair, format string) error {
	parts := strings.Split(pair, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-diff wants exactly two files: A,B")
	}
	a, err := load(strings.TrimSpace(parts[0]))
	if err != nil {
		return err
	}
	b, err := load(strings.TrimSpace(parts[1]))
	if err != nil {
		return err
	}
	div, err := flightrec.Bisect(a, b, nil)
	if err != nil {
		return err
	}
	if format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if div == nil {
			return enc.Encode(map[string]any{"divergence": nil})
		}
		return enc.Encode(map[string]any{"divergence": div, "report": div.String()})
	}
	if div == nil {
		fmt.Println("recordings are identical")
		return nil
	}
	fmt.Println(div.String())
	// Show the full field delta at the divergent snapshot for context.
	sa, errA := a.ReplayAt(div.Index)
	sb, errB := b.ReplayAt(div.Index)
	if errA != nil || errB != nil {
		return nil
	}
	diffs := flightrec.CompareStates(sa, sb, nil)
	fmt.Printf("\n%d fields differ at snapshot %d:\n", len(diffs), div.Index)
	for _, d := range diffs {
		fmt.Printf("  %-24s  A=0x%08x  B=0x%08x\n", d.Name, d.A, d.B)
	}
	return nil
}
