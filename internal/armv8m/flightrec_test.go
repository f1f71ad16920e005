package armv8m

import "testing"

// TestFlightFieldsCoverRegisterFile checks the v8-M MPU's flight-recorder
// embedding: every RBAR/RLAR pair plus both control bits appear, and a
// programmed region is reflected verbatim so a replayed snapshot can
// reconstruct the exact register file.
func TestFlightFieldsCoverRegisterFile(t *testing.T) {
	h := NewMPUHardware()
	h.WriteCtrl(CtrlEnable | CtrlPrivDefEna)
	const rbar, rlar = 0x2000_0000 | APRW<<RBARAPShift, 0x2000_0FE0 | RLAREnable
	if err := h.WriteRegion(3, rbar, rlar); err != nil {
		t.Fatal(err)
	}

	fields := h.FlightFields()
	if want := 2 + 2*NumRegions; len(fields) != want {
		t.Fatalf("got %d fields, want %d", len(fields), want)
	}
	byName := make(map[string]uint64, len(fields))
	for _, f := range fields {
		if _, dup := byName[f.Name]; dup {
			t.Fatalf("duplicate field %s", f.Name)
		}
		byName[f.Name] = f.Val
	}
	if byName["v8mpu.ctrl_enable"] != 1 {
		t.Fatal("ctrl_enable not captured")
	}
	if byName["v8mpu.privdefena"] != 1 {
		t.Fatal("privdefena default not captured")
	}
	if got := byName["v8mpu.rbar3"]; got != rbar {
		t.Fatalf("rbar3=0x%x, want 0x%x", got, rbar)
	}
	if got := byName["v8mpu.rlar3"]; got != rlar {
		t.Fatalf("rlar3=0x%x, want 0x%x", got, rlar)
	}
	for i := 0; i < NumRegions; i++ {
		if i == 3 {
			continue
		}
		if byName[regionField("v8mpu.rbar", i)] != 0 || byName[regionField("v8mpu.rlar", i)] != 0 {
			t.Fatalf("untouched region %d carries state", i)
		}
	}
}

func regionField(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}
