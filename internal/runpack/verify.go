package runpack

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ticktock/internal/flightrec"
)

// VerifyOptions tunes Verify.
type VerifyOptions struct {
	// Rerun executes the receipt's command in-process and requires the
	// re-derived result bytes to hash to the manifest's result digest —
	// the full end-to-end re-derivation (slow: it re-runs the campaign
	// or case).
	Rerun bool
	// Log, when non-nil, receives one line per verification step.
	Log func(format string, args ...any)
}

func (o VerifyOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Verify re-checks a pack's whole integrity chain and fails on the
// first break:
//
//   - the directory name matches the manifest's content address;
//   - the receipt names this manifest and this result digest;
//   - every member's size and sha256 match the manifest;
//   - every recording member decodes (the TTFR codec's CRC fails closed
//     on corruption), replays to its final snapshot, and re-derives the
//     state digest the manifest promised;
//   - with Rerun, the receipt command re-executed in-process produces
//     result bytes hashing to the manifest's result digest.
//
// A nil error means every byte of the pack is accounted for and the
// result is still derivable from the recorded evidence.
func Verify(dir string, opts VerifyOptions) error {
	m, raw, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	manifestSHA := sha256Hex(raw)

	// Content address: the directory must be named by its manifest.
	wantSuffix := manifestSHA[:12]
	if base := filepath.Base(dir); !strings.HasSuffix(base, wantSuffix) {
		return fmt.Errorf("runpack: %s: directory name does not match manifest digest %s — pack renamed or manifest edited", dir, wantSuffix)
	}
	opts.logf("manifest %s (kind %s, %d files)", manifestSHA[:12], m.Kind, len(m.Files))

	// Receipt: must cross-reference the manifest and result digests.
	receiptRaw, err := os.ReadFile(filepath.Join(dir, ReceiptName))
	if err != nil {
		return fmt.Errorf("runpack: %s: missing receipt: %w", dir, err)
	}
	rc, err := ParseReceipt(strings.TrimSpace(string(receiptRaw)))
	if err != nil {
		return fmt.Errorf("runpack: %s: %w", dir, err)
	}
	if rc.Manifest != manifestSHA {
		return fmt.Errorf("runpack: %s: receipt names manifest %s, file hashes to %s", dir, rc.Manifest[:12], manifestSHA[:12])
	}
	if rc.Result != m.ResultSHA256 {
		return fmt.Errorf("runpack: %s: receipt result digest disagrees with manifest", dir)
	}
	if rc.Kind != m.Kind || rc.Command != m.Command {
		return fmt.Errorf("runpack: %s: receipt kind/command disagrees with manifest", dir)
	}
	opts.logf("receipt ok: %s", rc.Command)

	// Members: sizes, digests, and no strays.
	covered := map[string]bool{ManifestName: true, ReceiptName: true}
	resultSeen := false
	for _, fe := range m.Files {
		covered[fe.Name] = true
		data, err := os.ReadFile(filepath.Join(dir, fe.Name))
		if err != nil {
			return fmt.Errorf("runpack: %s: member %s: %w", dir, fe.Name, err)
		}
		if int64(len(data)) != fe.Size {
			return fmt.Errorf("runpack: %s: member %s is %d bytes, manifest says %d", dir, fe.Name, len(data), fe.Size)
		}
		if got := sha256Hex(data); got != fe.SHA256 {
			return fmt.Errorf("runpack: %s: member %s digest mismatch: manifest %s, file %s — content tampered",
				dir, fe.Name, fe.SHA256[:12], got[:12])
		}
		if fe.Name == m.Result {
			resultSeen = true
			if fe.SHA256 != m.ResultSHA256 {
				return fmt.Errorf("runpack: %s: result member digest disagrees with manifest result_sha256", dir)
			}
		}
		if fe.Replay != nil {
			if err := verifyRecording(fe, data); err != nil {
				return fmt.Errorf("runpack: %s: %w", dir, err)
			}
			opts.logf("member %s ok (replayed %d snapshots to cycle %d, state %s)",
				fe.Name, fe.Replay.Snapshots, fe.Replay.FinalCycle, fe.Replay.StateDigest)
		} else {
			opts.logf("member %s ok (%d bytes)", fe.Name, fe.Size)
		}
	}
	if !resultSeen {
		return fmt.Errorf("runpack: %s: result member %s missing from manifest file list", dir, m.Result)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !covered[e.Name()] {
			return fmt.Errorf("runpack: %s: stray member %s not covered by manifest", dir, e.Name())
		}
	}

	if opts.Rerun {
		result, err := ExecuteReceipt(rc)
		if err != nil {
			return fmt.Errorf("runpack: %s: re-deriving result: %w", dir, err)
		}
		if got := sha256Hex(result); got != m.ResultSHA256 {
			return fmt.Errorf("runpack: %s: re-derived result hashes to %s, manifest says %s — run no longer reproducible",
				dir, got[:12], m.ResultSHA256[:12])
		}
		opts.logf("rerun ok: result re-derived byte-identically (%d bytes)", len(result))
	}
	return nil
}

// verifyRecording decodes a .ttfr member (the codec's CRC catches
// corruption the sha256 already rules out — but this path also catches
// a manifest forged around corrupt bytes), replays it to its final
// snapshot and compares the re-derived state against the manifest's
// promise.
func verifyRecording(fe FileEntry, data []byte) error {
	rec, err := flightrec.Decode(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("member %s: %w", fe.Name, err)
	}
	if len(rec.Snapshots) != fe.Replay.Snapshots {
		return fmt.Errorf("member %s: %d snapshots, manifest says %d", fe.Name, len(rec.Snapshots), fe.Replay.Snapshots)
	}
	if rec.FinalCycle() != fe.Replay.FinalCycle {
		return fmt.Errorf("member %s: final cycle %d, manifest says %d", fe.Name, rec.FinalCycle(), fe.Replay.FinalCycle)
	}
	if len(rec.Snapshots) == 0 {
		return nil
	}
	s, err := rec.ReplayAt(len(rec.Snapshots) - 1)
	if err != nil {
		return fmt.Errorf("member %s: replay failed: %w", fe.Name, err)
	}
	if got := StateDigest(s); got != fe.Replay.StateDigest {
		return fmt.Errorf("member %s: re-derived state digest %s, manifest says %s — recording does not reproduce the recorded state",
			fe.Name, got, fe.Replay.StateDigest)
	}
	return nil
}
