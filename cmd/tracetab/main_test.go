package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownFormatRunsNothing: an unknown -format is a usage error (exit
// 2) reported before the case runs, so nothing reaches stdout and -o is
// never created.
func TestUnknownFormatRunsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-case", "c_hello", "-format", "bogus", "-o", path}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), `tracetab: unknown format "bogus"`) {
		t.Fatalf("stderr %q does not name the format", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout written:\n%s", stdout.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("-o created despite the rejection: %v", err)
	}
}
