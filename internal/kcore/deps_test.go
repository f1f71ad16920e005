package kcore

import (
	"os/exec"
	"strings"
	"testing"
)

// TestImportsNoPort pins the package comment's claim: the core depends on
// no instruction set, no protection-unit driver, no allocator and no
// port, so every port can embed it.
func TestImportsNoPort(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "ticktock/internal/kcore").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	deps := strings.Fields(string(out))
	if len(deps) < 2 {
		t.Fatalf("go list -deps listed only %q", deps)
	}
	banned := map[string]bool{}
	for _, pkg := range []string{"armv7m", "armv8m", "rv32", "riscv", "core", "kernel", "rvkernel"} {
		banned["ticktock/internal/"+pkg] = true
	}
	for _, dep := range deps {
		if banned[dep] {
			t.Errorf("%s is in the dependency closure of ticktock/internal/kcore", dep)
		}
	}
}
