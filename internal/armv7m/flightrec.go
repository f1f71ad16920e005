package armv7m

import "ticktock/internal/flightrec"

// FlightFields captures the complete architectural state of the machine
// for the flight recorder: every CPU register including the banked stack
// pointers, CONTROL and the execution mode; the full MPU register file
// with its control bits; the SysTick timer; and the latched fault
// status. Capture observes state only — it never touches the cycle
// meter.
func (m *Machine) FlightFields() []flightrec.Field {
	c := &m.CPU
	f := make([]flightrec.Field, 0, 64)
	names := [13]string{"cpu.r0", "cpu.r1", "cpu.r2", "cpu.r3", "cpu.r4", "cpu.r5",
		"cpu.r6", "cpu.r7", "cpu.r8", "cpu.r9", "cpu.r10", "cpu.r11", "cpu.r12"}
	for i, n := range names {
		f = append(f, flightrec.F(n, uint64(c.R[i])))
	}
	f = append(f,
		flightrec.F("cpu.msp", uint64(c.MSP)),
		flightrec.F("cpu.psp", uint64(c.PSP)),
		flightrec.F("cpu.lr", uint64(c.LR)),
		flightrec.F("cpu.pc", uint64(c.PC)),
		flightrec.F("cpu.psr", uint64(c.PSR)),
		flightrec.F("cpu.control", uint64(c.Control)),
		flightrec.F("cpu.mode", uint64(c.Mode)),
		flightrec.F("cpu.priv", flightrec.B(c.Privileged())),
		flightrec.F("mpu.ctrl_enable", flightrec.B(m.MPU.ctrl&CtrlEnable != 0)),
		flightrec.F("mpu.privdefena", flightrec.B(m.MPU.ctrl&CtrlPrivDefEna != 0)),
	)
	for i := 0; i < NumRegions; i++ {
		rbar, rasr := m.MPU.Region(i)
		f = append(f,
			flightrec.F(regionName("mpu.rbar", i), uint64(rbar)),
			flightrec.F(regionName("mpu.rasr", i), uint64(rasr)),
		)
	}
	f = append(f,
		flightrec.F("tick.enabled", flightrec.B(m.Tick.Enabled)),
		flightrec.F("tick.reload", uint64(m.Tick.Reload)),
		flightrec.F("tick.current", uint64(m.Tick.Current())),
		flightrec.F("tick.pending", flightrec.B(m.Tick.Pending())),
		flightrec.F("tick.fired", m.Tick.Fired),
		flightrec.F("fault.valid", flightrec.B(m.Fault.Valid)),
		flightrec.F("fault.mmfar", uint64(m.Fault.MMFAR)),
	)
	return f
}

// regionName formats "prefixN" without fmt (hot-ish path, keeps
// allocations predictable).
func regionName(prefix string, i int) string {
	if i < 10 {
		return prefix + string(rune('0'+i))
	}
	return prefix + string(rune('0'+i/10)) + string(rune('0'+i%10))
}
