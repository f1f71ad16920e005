package specs

import (
	"math/rand"
	"slices"
	"testing"

	"ticktock/internal/accessmap"
	"ticktock/internal/mpu"
	"ticktock/internal/verify"
)

// oneLie wraps a real unit and flips its answer to exactly one range
// query: method "all" is AccessibleUser, "any" is AnyAccessibleUser.
type oneLie struct {
	rangeQuerier
	method        string
	start, length uint32
	kind          mpu.AccessKind
}

func (q oneLie) lies(method string, start, length uint32, kind mpu.AccessKind) bool {
	return method == q.method && start == q.start && length == q.length && kind == q.kind
}

func (q oneLie) AccessibleUser(start, length uint32, kind mpu.AccessKind) bool {
	return q.rangeQuerier.AccessibleUser(start, length, kind) != q.lies("all", start, length, kind)
}

func (q oneLie) AnyAccessibleUser(start, length uint32, kind mpu.AccessKind) bool {
	return q.rangeQuerier.AnyAccessibleUser(start, length, kind) != q.lies("any", start, length, kind)
}

// lookupLie wraps a real map and pulls in the End of the interval one
// Lookup returns by a byte.
type lookupLie struct {
	*accessmap.Map
	addr uint32
	kind mpu.AccessKind
	priv bool
}

func (l lookupLie) Lookup(addr uint32, kind mpu.AccessKind, priv bool) (accessmap.Interval, bool) {
	iv, ok := l.Map.Lookup(addr, kind, priv)
	if addr == l.addr && kind == l.kind && priv == l.priv {
		iv.End--
	}
	return iv, ok
}

// onlyViolation runs body as a one-obligation registry and returns the
// single violation it must record.
func onlyViolation(t *testing.T, body func(*verify.T)) *verify.Violation {
	t.Helper()
	r := verify.NewRegistry()
	r.Add(&verify.Spec{Component: CompAccessMap, Name: "wrapped", Body: body})
	res := r.Run().Results[0]
	if len(res.Violations) != 1 {
		t.Fatalf("%d violations, want exactly 1: %v", len(res.Violations), res.Violations)
	}
	return res.Violations[0]
}

// TestSweepsCatchOneWrongAnswer gives each kind of engine query one
// wrong answer and requires the sweep to report it under its own clause,
// with the detail the per-byte sweeps printed before the oracle table.
func TestSweepsCatchOneWrongAnswer(t *testing.T) {
	configs := accessMapConfigs()
	basic, carve := configs[0], configs[1]
	if basic.name != "accessmap/armv7m/basic_rw" || carve.name != "accessmap/armv7m/srd_carveout_overlap" {
		t.Fatalf("config order moved: %s, %s", basic.name, carve.name)
	}
	ranges := []struct {
		name, clause, detail string
		lie                  oneLie
	}{
		{"byte", "byte equivalence", "addr=0x20000240 kind=read map=false check=true",
			oneLie{method: "all", start: 0x2000_0240, length: 1, kind: mpu.AccessRead}},
		{"all-range", "all-range equivalence", "start=0x20000000 len=257 kind=write map=false scan=true",
			oneLie{method: "all", start: 0x2000_0000, length: 0x101, kind: mpu.AccessWrite}},
		{"any-range", "any-range equivalence", "start=0x1fffff80 len=64 kind=execute map=true scan=false",
			oneLie{method: "any", start: 0x1FFF_FF80, length: 0x40, kind: mpu.AccessExecute}},
		{"edge", "edge equivalence", "start=0xffffffff len=0x2 kind=write map=true scan=false",
			oneLie{method: "all", start: 0xFFFF_FFFF, length: 2, kind: mpu.AccessWrite}},
	}
	for _, c := range ranges {
		t.Run(c.name, func(t *testing.T) {
			q := c.lie
			q.rangeQuerier = basic.build()
			v := onlyViolation(t, func(vt *verify.T) { checkOracleEquivalence(vt, q, basic.window, amWinSize) })
			if v.Clause != c.clause || v.Detail != c.detail {
				t.Fatalf("got %q: %q\nwant %q: %q", v.Clause, v.Detail, c.clause, c.detail)
			}
		})
	}

	// One Lookup whose End lands inside the swept window (read from the
	// table) and one whose End lands past it (asked of Allows directly).
	lookups := []struct {
		name, detail string
		lie          lookupLie
	}{
		{"lookup-in-window", "byte at End=0x200007ff still allowed (kind=read priv=false)",
			lookupLie{addr: 0x2000_0000, kind: mpu.AccessRead}},
		{"lookup-past-window", "byte at End=0xffffffff still allowed (kind=read priv=true)",
			lookupLie{addr: 0x1FFF_FF00, kind: mpu.AccessRead, priv: true}},
	}
	for _, c := range lookups {
		t.Run(c.name, func(t *testing.T) {
			hw := carve.build()
			l := c.lie
			l.Map = hw.(interface{ AccessMap() *accessmap.Map }).AccessMap()
			check := hw.Allows
			v := onlyViolation(t, func(vt *verify.T) { checkLookupMaximal(vt, l, check, carve.window, bcWinSize) })
			if v.Clause != "lookup maximality" || v.Detail != c.detail {
				t.Fatalf("got %q: %q\nwant %q: %q", v.Clause, v.Detail, "lookup maximality", c.detail)
			}
		})
	}
}

// TestOracleTableMatchesByteScan checks the table's all- and any-range
// answers against the unit's byte scan and a per-byte any loop, on
// sampled ranges of every registered access-map configuration, a
// quarter of them ending at the table's last byte.
func TestOracleTableMatchesByteScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	size := amWinSize + slices.Max(amLengths)
	for _, c := range accessMapConfigs() {
		hw := c.build()
		check := hw.Allows
		oracle := &oracleTable{check: check, base: c.window, size: size}
		for i := 0; i < 64; i++ {
			off := rng.Uint32() % size
			length := rng.Uint32() % (size - off + 1)
			if i%2 == 1 {
				length %= 0x900
			}
			if i%4 == 0 {
				length = size - off
			}
			start := c.window + off
			for _, kind := range accessKinds {
				n := oracle.count(start, length, kind, false)
				if got, want := n == length, hw.AccessibleUserByteScan(start, length, kind); got != want {
					t.Fatalf("%s: all(0x%08x, %d, %v) = %v, byte scan %v", c.name, start, length, kind, got, want)
				}
				any := false
				for a := start; a-start < length && !any; a++ {
					any = check(a, kind, false)
				}
				if got := n > 0; got != any {
					t.Fatalf("%s: any(0x%08x, %d, %v) = %v, byte loop %v", c.name, start, length, kind, got, any)
				}
			}
		}
		// Single bytes at both ends of the table and just outside it.
		for _, a := range []uint32{c.window - 1, c.window, c.window + size - 1, c.window + size} {
			for _, kind := range accessKinds {
				if got, want := oracle.allowed(a, kind, false), check(a, kind, false); got != want {
					t.Fatalf("%s: allowed(0x%08x, %v) = %v, Check %v", c.name, a, kind, got, want)
				}
			}
		}
	}
}
