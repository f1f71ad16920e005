package armv8m

import (
	"fmt"

	"ticktock/internal/flightrec"
)

// FlightFields captures the v8-M MPU register file for the flight
// recorder: the control bits plus every RBAR/RLAR pair. The v8-M model
// has no full machine yet, so recordings embed these fields alongside
// whichever core drives the MPU (the verification specs and the
// access-map differential tests). Observation only — no cycle cost.
func (h *MPUHardware) FlightFields() []flightrec.Field {
	f := make([]flightrec.Field, 0, 2+2*NumRegions)
	f = append(f,
		flightrec.F("v8mpu.ctrl_enable", flightrec.B(h.ctrl&CtrlEnable != 0)),
		flightrec.F("v8mpu.privdefena", flightrec.B(h.ctrl&CtrlPrivDefEna != 0)),
	)
	for i := 0; i < NumRegions; i++ {
		rbar, rlar := h.Region(i)
		f = append(f,
			flightrec.F(fmt.Sprintf("v8mpu.rbar%d", i), uint64(rbar)),
			flightrec.F(fmt.Sprintf("v8mpu.rlar%d", i), uint64(rlar)),
		)
	}
	return f
}
