package ticktock

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"ticktock/internal/apps"
	"ticktock/internal/campaign"
	"ticktock/internal/faultinject"
	"ticktock/internal/kernel"
	"ticktock/internal/riscv"
	"ticktock/internal/rvkernel"
	"ticktock/internal/telemetry"
)

// BenchmarkCampaignLayers gives the wall time of one fixed 100-scenario
// fault campaign on one worker, one row per durability or observability
// layer added to the plain Run path:
//
//	plain    faultinject.Run's bare supervision
//	journal  + a fresh fsync'd resume journal
//	plane    + a telemetry plane (observer, unit tracers, live aggregate)
//	record   + Config.Record
//	all      all three with a 30 s timeout and one retry, the setup of
//	         perfbench's faultcamp-observed workload
//	fast     the plain row on the block-cache fast core (Config.FastCore)
//
// ns/op is one campaign. Every row must render the plain row's report,
// so a layer that changed a result fails here instead of reading as a
// saving. The ablation guards (make ablation) pin zero simulated cycles
// per layer; this reads wall time, so it stays out of them.
func BenchmarkCampaignLayers(b *testing.B) {
	cfg := faultinject.Config{Seed: 1 << 16, N: 100, Workers: 1}
	want := faultinject.Run(cfg).Text()
	for _, row := range []struct {
		name                                string
		journal, plane, record, retry, fast bool
	}{
		{name: "plain"},
		{name: "journal", journal: true},
		{name: "plane", plane: true},
		{name: "record", record: true},
		{name: "all", journal: true, plane: true, record: true, retry: true},
		{name: "fast", fast: true},
	} {
		b.Run(row.name, func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Record, c.FastCore = row.record, row.fast
				sup := campaign.Config{Workers: 1}
				if row.journal {
					sup.Journal = filepath.Join(dir, fmt.Sprintf("campaign-%d.journal", i))
				}
				if row.retry {
					sup.Timeout, sup.Retries = 30*time.Second, 1
				}
				var plane *telemetry.Plane
				if row.plane {
					plane = telemetry.New()
				}
				rep, _, err := faultinject.RunSupervised(c, sup, plane)
				if err != nil {
					b.Fatal(err)
				}
				if got := rep.Text(); got != want {
					b.Fatalf("%s: report differs from the plain campaign's:\n%s", row.name, got)
				}
			}
		})
	}
}

// BenchmarkLoadProcess is the image-load layer of a campaign scenario:
// one LoadProcess of a warm app (c_hello, its images already assembled
// by an earlier load) on a fresh kernel, per port. The boot runs with
// the timer stopped, so ns/op and allocs/op are the load's alone: a TBF
// header written and parsed, the shared program mapped, the process
// block allocated and zeroed.
func BenchmarkLoadProcess(b *testing.B) {
	armApp := apps.All()[0].Apps[0]
	rvApp := rvkernel.ReleaseSubset()[0]
	for _, row := range []struct {
		name string
		boot func() (load func() error, err error)
	}{
		{"arm", func() (func() error, error) {
			k, err := kernel.New(kernel.Options{})
			return func() error { _, err := k.LoadProcess(armApp); return err }, err
		}},
		{"riscv", func() (func() error, error) {
			k, err := rvkernel.New(riscv.Chips[0])
			return func() error { _, err := k.LoadProcess(rvApp); return err }, err
		}},
	} {
		b.Run(row.name, func(b *testing.B) {
			load, err := row.boot()
			if err == nil {
				err = load() // warm the app's images
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				load, err := row.boot()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := load(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
