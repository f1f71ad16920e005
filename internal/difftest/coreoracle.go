package difftest

// Core-oracle differential testing: the same campaign discipline the
// §6.1 flavour diff applies between kernels is applied between emulator
// cores. The byte-scan Step core is the trusted oracle; the block-cache
// fast core must reproduce its console output and final process states
// byte for byte on every case and both kernel flavours. Unlike the
// cross-flavour diff, *zero* divergences are expected — there are no
// legitimately-differing cases, because the cores execute the very same
// kernel and the fast core's contract is full observational equality.

import (
	"context"
	"fmt"
	"strings"

	"ticktock/internal/apps"
	"ticktock/internal/campaign"
	"ticktock/internal/kcore"
	"ticktock/internal/kernel"
)

// CoreRow is one (case, flavour) comparison between the oracle core and
// the block-cache fast core.
type CoreRow struct {
	Name    string
	Flavour kernel.Flavour
	Equal   bool
	// Oracle and Fast combine console output and final process states
	// per core.
	Oracle string
	Fast   string
	Err    error
}

// OK reports whether the row shows the cores agreeing.
func (r CoreRow) OK() bool { return r.Err == nil && r.Equal }

// coreOracleCase runs one case on one flavour under both cores and
// compares output plus final states.
func coreOracleCase(tc apps.TestCase, fl kernel.Flavour) CoreRow {
	row := CoreRow{Name: tc.Name, Flavour: fl}
	_, slowOut, slowStates, err := runOn(tc, fl, Config{}, kcore.Observe{})
	if err != nil {
		row.Err = err
		return row
	}
	_, fastOut, fastStates, err := runOn(tc, fl, Config{FastCore: true}, kcore.Observe{})
	if err != nil {
		row.Err = err
		return row
	}
	row.Oracle = slowOut + "\n" + slowStates
	row.Fast = fastOut + "\n" + fastStates
	row.Equal = row.Oracle == row.Fast
	return row
}

// RunCoreOracle runs the full release-test suite on both flavours, each
// case once per core, as one supervised unit per (case, flavour) under
// campaign.Supervise with no timeout and no retries. A comparison that
// errors or panics comes back as an errored row. Every row must be OK.
func RunCoreOracle(workers int) []CoreRow {
	cases := apps.All()
	flavours := []kernel.Flavour{kernel.FlavourTickTock, kernel.FlavourTock}
	unit := func(i int) (apps.TestCase, kernel.Flavour) {
		return cases[i/len(flavours)], flavours[i%len(flavours)]
	}
	run, _ := campaign.Supervise(campaign.Config{Workers: workers}, campaign.Source[CoreRow]{
		N:    len(cases) * len(flavours),
		Kind: "difftest-cores",
		Key: func(i int) string {
			tc, fl := unit(i)
			return tc.Name + "/" + fl.String()
		},
		Run: func(_ context.Context, i int) (CoreRow, error) {
			row := coreOracleCase(unit(i))
			return row, row.Err
		},
	}) // no journal: cannot fail
	rows := make([]CoreRow, len(run.Outcomes))
	for i, o := range run.Outcomes {
		rows[i] = o.Result
		if o.Status != campaign.StatusOK {
			tc, fl := unit(i)
			rows[i] = CoreRow{Name: tc.Name, Flavour: fl, Err: quarantineErr(o)}
		}
	}
	return rows
}

// CoreOracleTable renders a core-oracle campaign as text.
func CoreOracleTable(rows []CoreRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-10s %s\n", "test", "flavour", "verdict")
	bad := 0
	for _, r := range rows {
		verdict := "ok"
		if r.Err != nil {
			verdict = fmt.Sprintf("ERROR: %v", r.Err)
			bad++
		} else if !r.Equal {
			verdict = "DIVERGED"
			bad++
		}
		fmt.Fprintf(&b, "%-18s %-10s %s\n", r.Name, r.Flavour, verdict)
	}
	fmt.Fprintf(&b, "\n%d core comparisons, %d divergent/errored\n", len(rows), bad)
	return b.String()
}
