package runpack

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ticktock/internal/faultinject"
	"ticktock/internal/flightrec"
	"ticktock/internal/kernel"
)

func TestReceiptRoundTrip(t *testing.T) {
	r := Receipt{
		Kind:     KindFaultcamp,
		Manifest: strings.Repeat("ab", 32),
		Result:   strings.Repeat("cd", 32),
		Command:  `faultcamp -seed 7 -n 20`,
	}
	line := FormatReceipt(r)
	got, err := ParseReceipt(line)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip mangled the receipt:\n%+v\n%+v", got, r)
	}
}

func TestParseReceiptRejects(t *testing.T) {
	valid := FormatReceipt(Receipt{
		Kind: KindReplay, Manifest: strings.Repeat("0", 64), Result: strings.Repeat("1", 64),
		Command: "replay -record c_hello -flavour ticktock",
	})
	cases := []struct {
		name string
		line string
	}{
		{"wrong version", strings.Replace(valid, "runpack/1", "runpack/9", 1)},
		{"no prefix", strings.TrimPrefix(valid, "runpack/1 ")},
		{"truncated digest", strings.Replace(valid, strings.Repeat("0", 64), strings.Repeat("0", 63), 1)},
		{"uppercase digest", strings.Replace(valid, strings.Repeat("0", 64), strings.Repeat("A", 64), 1)},
		{"no sha prefix", strings.Replace(valid, "manifest=sha256:", "manifest=", 1)},
		{"unterminated cmd", strings.TrimSuffix(valid, `"`)},
		{"unknown key", valid + " extra=1"},
		{"missing cmd", valid[:strings.Index(valid, " cmd=")]},
		{"empty", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseReceipt(tc.line); err == nil {
				t.Fatalf("accepted malformed receipt: %q", tc.line)
			}
		})
	}
}

// TestReceiptExecutesOnBothPorts is the receipt round-trip contract: the
// receipt line parsed back from a sealed campaign pack re-executes
// in-process to the exact result bytes, and the pack's witness
// recordings — one per port — are re-derived byte-identically by
// re-running the recorded scenario on the ARM and RISC-V ports.
func TestReceiptExecutesOnBothPorts(t *testing.T) {
	dir := buildFaultcampPack(t)

	raw, err := os.ReadFile(filepath.Join(dir, ReceiptName))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ParseReceipt(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if rc.Kind != KindFaultcamp || rc.Command != "faultcamp -seed 7 -n 2" {
		t.Fatalf("unexpected receipt: %+v", rc)
	}

	// Execute the receipt in-process: the re-derived result must be
	// byte-identical to the pack's result member.
	result, err := ExecuteReceipt(rc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "result.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(result, want) {
		t.Fatalf("re-executed receipt diverges from the stored result:\n%s\n---\n%s", result, want)
	}

	// Re-derive the witness recordings for both ports and require
	// byte-identical encodings plus matching replayed state digests.
	sc := faultinject.GenScenarios(smallCampaign)[0]
	arm, rv, err := faultinject.RecordRuns(sc, smallCampaign, true)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, port := range []struct {
		member string
		rec    *flightrec.Recording
	}{
		{"witness-arm.ttfr", arm},
		{"witness-rv.ttfr", rv},
	} {
		stored, err := os.ReadFile(filepath.Join(dir, port.member))
		if err != nil {
			t.Fatal(err)
		}
		var rerun bytes.Buffer
		if err := port.rec.Encode(&rerun); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rerun.Bytes(), stored) {
			t.Fatalf("%s: re-recorded run does not encode byte-identically", port.member)
		}
		// The re-derived final state must match the manifest's pinned
		// state digest — same machine state down to every field and page.
		s, err := port.rec.ReplayAt(len(port.rec.Snapshots) - 1)
		if err != nil {
			t.Fatal(err)
		}
		var fe *FileEntry
		for i := range m.Files {
			if m.Files[i].Name == port.member {
				fe = &m.Files[i]
			}
		}
		if fe == nil || fe.Replay == nil {
			t.Fatalf("%s missing replay digest in manifest", port.member)
		}
		if got := StateDigest(s); got != fe.Replay.StateDigest {
			t.Fatalf("%s: re-derived state digest %s, manifest pinned %s", port.member, got, fe.Replay.StateDigest)
		}
	}
}

// TestReplayReceiptRoundTrip: a replay pack's receipt re-records the
// case and must reproduce the recording member byte for byte.
func TestReplayReceiptRoundTrip(t *testing.T) {
	dir := buildReplayPack(t, "c_hello", kernel.FlavourTock)
	raw, err := os.ReadFile(filepath.Join(dir, ReceiptName))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ParseReceipt(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	result, err := ExecuteReceipt(rc)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(filepath.Join(dir, "recording.ttfr"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(result, stored) {
		t.Fatal("re-executed replay receipt does not reproduce the recording bytes")
	}
}

func TestExecuteReceiptRejectsUnknownCommand(t *testing.T) {
	_, err := ExecuteReceipt(Receipt{Command: "rm -rf /"})
	if err == nil || !strings.Contains(err.Error(), "no in-process executor") {
		t.Fatalf("unknown command accepted: %v", err)
	}
}
