package runpack

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ticktock/internal/campaign"
	"ticktock/internal/difftest"
	"ticktock/internal/faultinject"
	"ticktock/internal/kernel"
)

// smallCampaign is the shared tiny-but-real campaign config for pack
// tests; tiny N keeps re-derivation cheap.
var smallCampaign = faultinject.Config{Seed: 7, N: 2}

// buildFaultcampPack seals a small real campaign into a pack under a
// fresh root and returns the pack dir.
func buildFaultcampPack(t *testing.T) string {
	t.Helper()
	rep := faultinject.Run(smallCampaign)
	dir, receipt, err := EmitFaultcamp(t.TempDir(), rep, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(receipt, "runpack/1 kind=faultcamp ") {
		t.Fatalf("unexpected receipt: %s", receipt)
	}
	return dir
}

// buildReplayPack seals one recorded case into a pack.
func buildReplayPack(t *testing.T, caseName string, fl kernel.Flavour) string {
	t.Helper()
	tc, err := findCase(caseName)
	if err != nil {
		t.Fatal(err)
	}
	_, rec, err := difftest.RunRecorded(tc, fl, difftest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir, _, err := EmitReplay(t.TempDir(), caseName, fl, rec)
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestFaultcampPackVerifies(t *testing.T) {
	dir := buildFaultcampPack(t)
	if err := Verify(dir, VerifyOptions{}); err != nil {
		t.Fatalf("fresh pack fails verification: %v", err)
	}
	m, _, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The pack must carry the members the manifest schema promises:
	// result, rows, metrics, and a witness recording per port.
	for _, want := range []string{"result.txt", "rows.txt", "metrics.prom", "witness-arm.ttfr", "witness-rv.ttfr"} {
		found := false
		for _, fe := range m.Files {
			if fe.Name == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("pack is missing member %s", want)
		}
	}
}

// TestQuarantinePackIgnoresWorkers seals one quarantined outcome under
// two worker counts. Workers changes scheduling, never results, so the
// pack, named by its manifest digest, must be the same.
func TestQuarantinePackIgnoresWorkers(t *testing.T) {
	o := campaign.Outcome[faultinject.Result]{
		Index: 1, Key: "sc0001", Status: campaign.StatusQuarantined,
		Attempts: []campaign.Attempt{{Failure: campaign.FailTimeout, Err: "wedged"}},
	}
	var names []string
	for _, workers := range []int{1, 2} {
		cfg := smallCampaign
		cfg.Workers = workers
		dir, _, err := EmitQuarantine(t.TempDir(), cfg, o)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, filepath.Base(dir))
	}
	if names[0] != names[1] {
		t.Fatalf("quarantine pack depends on Workers: %s vs %s", names[0], names[1])
	}
}

// TestVerifyDetectsSingleFlippedByte is the negative acceptance
// criterion: flipping one byte in ANY manifest-covered file (and in the
// manifest and receipt themselves) must fail verification.
func TestVerifyDetectsSingleFlippedByte(t *testing.T) {
	pristine := buildFaultcampPack(t)
	entries, err := os.ReadDir(pristine)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Run(e.Name(), func(t *testing.T) {
			// Work on a copy so each member's tamper test is independent.
			dir := filepath.Join(t.TempDir(), filepath.Base(pristine))
			copyDir(t, pristine, dir)
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 {
				t.Skip("empty member")
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := Verify(dir, VerifyOptions{}); err == nil {
				t.Fatalf("verification passed with a flipped byte in %s", e.Name())
			}
		})
	}
}

// TestVerifyRerunRederivesCampaign is the positive acceptance
// criterion: the receipt command re-executed in-process re-derives the
// campaign result byte-for-byte, and every recording member replays to
// the state digest the manifest pinned.
func TestVerifyRerunRederivesCampaign(t *testing.T) {
	dir := buildFaultcampPack(t)
	var steps []string
	opts := VerifyOptions{Rerun: true, Log: func(f string, a ...any) {
		steps = append(steps, f)
	}}
	if err := Verify(dir, opts); err != nil {
		t.Fatalf("rerun verification failed: %v", err)
	}
	joined := strings.Join(steps, "\n")
	if !strings.Contains(joined, "rerun ok") {
		t.Fatalf("rerun step missing from log:\n%s", joined)
	}
	if !strings.Contains(joined, "replayed") {
		t.Fatalf("recording replay step missing from log:\n%s", joined)
	}
}

func TestVerifyDetectsRenamedPack(t *testing.T) {
	dir := buildReplayPack(t, "c_hello", kernel.FlavourTickTock)
	renamed := filepath.Join(filepath.Dir(dir), "replay-000000000000")
	if err := os.Rename(dir, renamed); err != nil {
		t.Fatal(err)
	}
	err := Verify(renamed, VerifyOptions{})
	if err == nil || !strings.Contains(err.Error(), "directory name") {
		t.Fatalf("renamed pack accepted: %v", err)
	}
}

func TestVerifyDetectsStrayMember(t *testing.T) {
	dir := buildReplayPack(t, "c_hello", kernel.FlavourTickTock)
	if err := os.WriteFile(filepath.Join(dir, "smuggled.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := Verify(dir, VerifyOptions{})
	if err == nil || !strings.Contains(err.Error(), "stray") {
		t.Fatalf("stray member accepted: %v", err)
	}
}

func TestVerifyDetectsDeletedMember(t *testing.T) {
	dir := buildReplayPack(t, "c_hello", kernel.FlavourTickTock)
	if err := os.Remove(filepath.Join(dir, "trace.txt")); err != nil {
		t.Fatal(err)
	}
	if err := Verify(dir, VerifyOptions{}); err == nil {
		t.Fatal("pack with deleted member accepted")
	}
}

// TestSealIdempotent: sealing identical content twice lands on the
// identical directory — content addressing in action.
func TestSealIdempotent(t *testing.T) {
	root := t.TempDir()
	build := func() string {
		b := NewBuilder(KindReplay, "replay -record x -flavour ticktock", replayConfig{Case: "x", Flavour: "ticktock"})
		b.AddFile("result.txt", []byte("hello"))
		b.SetResult("result.txt")
		dir, _, err := b.Seal(root)
		if err != nil {
			t.Fatal(err)
		}
		return dir
	}
	a, bDir := build(), build()
	if a != bDir {
		t.Fatalf("identical content sealed to different dirs: %s vs %s", a, bDir)
	}
	if err := Verify(a, VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderRejectsBadMembers(t *testing.T) {
	cases := []struct {
		name string
		add  func(b *Builder)
		want string
	}{
		{"reserved manifest", func(b *Builder) { b.AddFile(ManifestName, nil) }, "reserved"},
		{"reserved receipt", func(b *Builder) { b.AddFile(ReceiptName, nil) }, "reserved"},
		{"path traversal", func(b *Builder) { b.AddFile("../evil", nil) }, "plain file name"},
		{"subdir", func(b *Builder) { b.AddFile("a/b", nil) }, "plain file name"},
		{"duplicate", func(b *Builder) { b.AddFile("x", nil); b.AddFile("x", nil) }, "duplicate"},
		{"unknown result", func(b *Builder) { b.AddFile("x", nil); b.SetResult("y") }, "never added"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(KindReplay, "cmd", nil)
			tc.add(b)
			if b.result == "" && tc.name != "unknown result" {
				b.AddFile("result.txt", []byte("r"))
				b.SetResult("result.txt")
			}
			_, _, err := b.Seal(t.TempDir())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Seal() = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

func TestListFindsPacks(t *testing.T) {
	root := t.TempDir()
	b := NewBuilder(KindReplay, "replay -record x -flavour ticktock", nil)
	b.AddFile("result.txt", []byte("r"))
	b.SetResult("result.txt")
	dir, _, err := b.Seal(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "not-a-pack"), 0o755); err != nil {
		t.Fatal(err)
	}
	got, err := List(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != dir {
		t.Fatalf("List() = %v, want [%s]", got, dir)
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
