// Command runpack inspects and verifies the content-addressed artifact
// directories ("packs") that cmd/faultcamp, cmd/difftest and cmd/replay
// emit. A pack's manifest digests every member file; its receipt names
// the manifest and the exact in-process command that re-derives the
// result, so a pack can be audited end-to-end long after the run.
//
// Usage:
//
//	runpack verify [-rerun] [-v] DIR...
//	runpack ls ROOT
//	runpack show DIR
//
// verify re-checks the whole integrity chain — directory name, receipt,
// member digests, recording replays — and exits non-zero on the first
// mismatch; a single flipped byte anywhere in a manifest-covered file
// fails the pack. With -rerun it also re-executes the receipt's command
// in-process and requires the re-derived result to hash identically. ls
// lists the packs under a root; show prints one pack's receipt and
// manifest summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ticktock/internal/runpack"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "verify":
		doVerify(os.Args[2:])
	case "ls":
		doLs(os.Args[2:])
	case "show":
		doShow(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: runpack verify [-rerun] [-v] DIR... | runpack ls ROOT | runpack show DIR")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "runpack: %v\n", err)
	os.Exit(1)
}

func doVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	rerun := fs.Bool("rerun", false, "also re-execute the receipt command in-process and compare the re-derived result")
	verbose := fs.Bool("v", false, "log each verification step")
	_ = fs.Parse(args)
	dirs := fs.Args()
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "runpack verify: no pack directories given")
		os.Exit(2)
	}
	opts := runpack.VerifyOptions{Rerun: *rerun}
	if *verbose {
		opts.Log = func(format string, a ...any) { fmt.Printf("  "+format+"\n", a...) }
	}
	bad := 0
	for _, dir := range dirs {
		if *verbose {
			fmt.Printf("%s:\n", dir)
		}
		if err := runpack.Verify(dir, opts); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", dir, err)
			bad++
			continue
		}
		fmt.Printf("ok   %s\n", dir)
	}
	if bad > 0 {
		os.Exit(1)
	}
}

func doLs(args []string) {
	root := "."
	if len(args) > 0 {
		root = args[0]
	}
	dirs, err := runpack.List(root)
	if err != nil {
		fail(err)
	}
	for _, dir := range dirs {
		m, _, err := runpack.ReadManifest(dir)
		if err != nil {
			fmt.Printf("%-50s (unreadable: %v)\n", filepath.Base(dir), err)
			continue
		}
		fmt.Printf("%-50s %-10s %2d files  %s\n", filepath.Base(dir), m.Kind, len(m.Files), m.Command)
	}
}

func doShow(args []string) {
	if len(args) != 1 {
		usage()
	}
	dir := args[0]
	m, raw, err := runpack.ReadManifest(dir)
	if err != nil {
		fail(err)
	}
	receipt, err := os.ReadFile(filepath.Join(dir, runpack.ReceiptName))
	if err != nil {
		fail(err)
	}
	fmt.Printf("pack:     %s\n", dir)
	fmt.Printf("kind:     %s\n", m.Kind)
	fmt.Printf("command:  %s\n", m.Command)
	fmt.Printf("result:   %s (sha256 %s)\n", m.Result, short(m.ResultSHA256))
	fmt.Printf("receipt:  %s\n", strings.TrimSpace(string(receipt)))
	fmt.Printf("manifest: %d bytes, %d members\n", len(raw), len(m.Files))
	for _, fe := range m.Files {
		extra := ""
		if fe.Replay != nil {
			extra = fmt.Sprintf("  [%d snapshots -> cycle %d, state %s]", fe.Replay.Snapshots, fe.Replay.FinalCycle, fe.Replay.StateDigest)
		}
		fmt.Printf("  %-36s %8d  %s%s\n", fe.Name, fe.Size, short(fe.SHA256), extra)
	}
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}
