package telemetry

import (
	"os/exec"
	"strings"
	"testing"
)

// TestCampaignPackagesDoNotLinkHTTP keeps net/http out of every binary
// that runs a campaign without serving it: the plane and the two
// campaign packages must not reach net/http, which only the scrape
// server may import. `go test` puts its own go command first on PATH.
func TestCampaignPackagesDoNotLinkHTTP(t *testing.T) {
	pkgs := []string{"ticktock/internal/telemetry", "ticktock/internal/faultinject", "ticktock/internal/difftest"}
	out, err := exec.Command("go", append([]string{"list", "-deps"}, pkgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	deps := strings.Fields(string(out))
	if len(deps) < len(pkgs) {
		t.Fatalf("go list -deps listed only %q", deps)
	}
	for _, dep := range deps {
		if dep == "net/http" || strings.HasPrefix(dep, "net/http/") {
			t.Errorf("%s is in the dependency closure of %s", dep, strings.Join(pkgs, ", "))
		}
	}
}
