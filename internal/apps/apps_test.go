package apps

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ticktock/internal/armv7m"
	"ticktock/internal/kernel"
)

func TestAllCasesAssemble(t *testing.T) {
	for _, tc := range All() {
		for _, app := range tc.Apps {
			p := app.Build(0x0004_0040)
			if len(p.Instrs) == 0 {
				t.Fatalf("%s/%s: empty program", tc.Name, app.Name)
			}
			if p.Base != 0x0004_0040 {
				t.Fatalf("%s: wrong base", app.Name)
			}
			// Rebuilding at a different base must keep the same length
			// (the loader relies on this for slot sizing).
			q := app.Build(0x0008_0000)
			if len(q.Instrs) != len(p.Instrs) {
				t.Fatalf("%s: length varies with base: %d vs %d", app.Name, len(p.Instrs), len(q.Instrs))
			}
		}
	}
}

func TestCaseMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, tc := range All() {
		if tc.Name == "" || len(tc.Apps) == 0 {
			t.Fatalf("malformed case %+v", tc)
		}
		if seen[tc.Name] {
			t.Fatalf("duplicate case %s", tc.Name)
		}
		seen[tc.Name] = true
		for _, app := range tc.Apps {
			if app.InitRAM > app.MinRAM || app.Stack > app.InitRAM {
				t.Fatalf("%s/%s: inconsistent RAM geometry", tc.Name, app.Name)
			}
		}
	}
}

// The cases share one backing array of apps; an append to one case must
// leave every other case's apps as they were.
func TestCaseAppsAreCapped(t *testing.T) {
	cases := All()
	want := All()
	for i := range cases {
		cases[i].Apps = append(cases[i].Apps, kernel.App{Name: "extra"})
	}
	for i, tc := range cases {
		if len(tc.Apps) != len(want[i].Apps)+1 {
			t.Fatalf("%s: %d apps after one append, want %d", tc.Name, len(tc.Apps), len(want[i].Apps)+1)
		}
		for j, app := range want[i].Apps {
			if tc.Apps[j].Name != app.Name {
				t.Fatalf("%s: app %d is %q after appends to the cases, want %q", tc.Name, j, tc.Apps[j].Name, app.Name)
			}
		}
	}
	if ipc, _ := Find("ipc_pair"); len(ipc.Apps) != 2 {
		t.Fatalf("ipc_pair has %d apps, want 2", len(ipc.Apps))
	}
}

func TestPutHexEmitsUniqueLabels(t *testing.T) {
	a := armv7m.NewAssembler(0x100)
	PutHex(a, armv7m.R4)
	PutHex(a, armv7m.R5) // second expansion must not collide
	if _, err := a.Assemble(); err != nil {
		t.Fatalf("label collision: %v", err)
	}
}

// loadAndRun boots a fresh kernel, loads app and runs it to completion.
// It returns the Program mapped at the app's entry and a summary of the
// run: output, final state and simulated cycles.
func loadAndRun(app kernel.App) (*armv7m.Program, string, error) {
	k, err := kernel.New(kernel.Options{})
	if err != nil {
		return nil, "", err
	}
	p, err := k.LoadProcess(app)
	if err != nil {
		return nil, "", err
	}
	if _, err := k.Run(100); err != nil {
		return nil, "", err
	}
	return k.Board.Machine.ProgramAt(p.Entry),
		fmt.Sprintf("%q %s %d", k.Output(p), p.State, k.Meter().Cycles()), nil
}

// TestImageAssembledOncePerBase loads one App on two fresh kernels: its
// builder runs once, at the code base of the first flash slot, the
// second kernel maps the first one's Program, and the two runs agree.
func TestImageAssembledOncePerBase(t *testing.T) {
	builds := map[uint32]int{}
	app := stdApp("once", func(a *armv7m.Assembler) {
		builds[a.PC()]++
		Puts(a, "once\r\n")
		Exit(a, 0)
	})
	var progs [2]*armv7m.Program
	var runs [2]string
	for i := range progs {
		var err error
		if progs[i], runs[i], err = loadAndRun(app); err != nil {
			t.Fatal(err)
		}
	}
	entry := progs[0].Base
	if len(builds) != 1 || builds[entry] != 1 {
		t.Fatalf("builder calls by base = %v, want one at 0x%x", builds, entry)
	}
	if progs[1] != progs[0] {
		t.Fatal("the second kernel assembled its own Program")
	}
	if runs[0] != runs[1] || !strings.HasPrefix(runs[0], `"once\r\n" exited `) {
		t.Fatalf("runs differ or did not finish: %s vs %s", runs[0], runs[1])
	}
}

// TestImageSharedAcrossGoroutines has two kernels load and run one
// release app at once from a cold memo, the way campaign workers share
// the release apps; under -race it checks the memo and the shared
// Program.
func TestImageSharedAcrossGoroutines(t *testing.T) {
	app := mallocTest01()
	var wg sync.WaitGroup
	var progs [2]*armv7m.Program
	var runs [2]string
	var errs [2]error
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			progs[i], runs[i], errs[i] = loadAndRun(app)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if progs[0] != progs[1] || runs[0] != runs[1] {
		t.Fatalf("concurrent loads differ: %p %s vs %p %s", progs[0], runs[0], progs[1], runs[1])
	}
}
