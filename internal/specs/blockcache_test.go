package specs

import "testing"

func TestBlockCacheObligationsHold(t *testing.T) {
	rep := BuildBlockCache(QuickScale).Run()
	for _, f := range rep.Failed() {
		t.Errorf("%s: %v", f.Spec.Name, f.Violations[0])
	}
	// lookup_maximal + block_exec_equiv per stepping port,
	// hint_invalidation_sound for all three protection models (armv8m
	// included), plus the cross-port timer_user_entry contract.
	if len(rep.Results) != 8 {
		t.Fatalf("%d block-cache obligations registered, want 8", len(rep.Results))
	}
	requireExactDomain(t, rep)
	names := map[string]bool{}
	for _, r := range rep.Results {
		names[r.Spec.Name] = true
	}
	if !names["blockcache/timer_user_entry"] {
		t.Fatal("timer_user_entry obligation missing — the documented rv32/armv7m polling asymmetry is unpinned")
	}
}
