package rvkernel

import (
	"testing"

	"ticktock/internal/kcore"
	"ticktock/internal/riscv"
	"ticktock/internal/rv32"
	"ticktock/internal/trace"
)

// TestTraceCountsMatchKernelCounters mirrors the ARM kernel's trace
// accounting check on the RISC-V port: context-switch events equal the
// kernel's switch counter, syscall spans balance, and tracing costs zero
// simulated cycles.
func TestTraceCountsMatchKernelCounters(t *testing.T) {
	run := func(tr *trace.Tracer) (*Kernel, error) {
		k, err := New(riscv.Chips[0])
		if err != nil {
			return nil, err
		}
		k.Attach(kcore.Observe{Trace: tr})
		for _, app := range ReleaseSubset() {
			if _, err := k.LoadProcess(app); err != nil {
				return nil, err
			}
		}
		_, err = k.Run(4000)
		return k, err
	}

	plain, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(1 << 17)
	traced, err := run(tr)
	if err != nil {
		t.Fatal(err)
	}

	if tr.Emitted() == 0 {
		t.Fatal("no events emitted")
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("ring dropped %d events; raise the test capacity", d)
	}
	if got, want := tr.Count(trace.KindContextSwitch), traced.Switches(); got != want {
		t.Errorf("%d context-switch events, kernel counted %d", got, want)
	}
	if tr.Count(trace.KindSyscallEnter) != tr.Count(trace.KindSyscallExit) {
		t.Errorf("unbalanced syscall spans: %d enters, %d exits",
			tr.Count(trace.KindSyscallEnter), tr.Count(trace.KindSyscallExit))
	}
	if tr.Count(trace.KindMPUConfig) == 0 || tr.Count(trace.KindGrantAlloc) == 0 {
		t.Error("expected PMP-config and grant-alloc events from the release subset")
	}
	if got, want := traced.Machine.Meter.Cycles(), plain.Machine.Meter.Cycles(); got != want {
		t.Errorf("traced run used %d cycles, untraced %d — tracing must be free", got, want)
	}
	if got, want := traced.Switches(), plain.Switches(); got != want {
		t.Errorf("traced switches=%d, untraced %d", got, want)
	}
}

// TestClassBeyondABIStaysNumeric pins the port's class table: RISC-V's
// ABI defines classes 0..5, so class 6 (subscribe on ARM) traces as
// svc-6 and fails as an invalid syscall.
func TestClassBeyondABIStaysNumeric(t *testing.T) {
	k, err := New(riscv.ChipHiFive1)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(0)
	k.Attach(kcore.Observe{Trace: tr})
	app := stdApp("svc6", func(a *rv32.Assembler) {
		syscall(a, 6, 0, 0, 0, 0)
		exit(a, 0)
	})
	if _, err := k.LoadProcess(app); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(100); err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindSyscallEnter && ev.A == 6 {
			labels = append(labels, ev.Label)
		}
	}
	if len(labels) != 1 || labels[0] != "svc-6" {
		t.Fatalf("class-6 syscall labels %q, want [svc-6]", labels)
	}
	if got := k.Counters().SyscallErrors; got != 1 {
		t.Fatalf("SyscallErrors=%d, want 1", got)
	}
}
