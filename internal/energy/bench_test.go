package energy

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkEnergyAccounting measures the accountant's hot path: one
// lock/carrier/transmit cycle of state transitions, each an O(1)
// accrual. It must stay allocation-free — the radio calls it on every
// state edge of every node.
func BenchmarkEnergyAccounting(b *testing.B) {
	s := sim.NewScheduler()
	a := NewAccountant(s, Config{Profile: WaveLAN()})
	step := sim.Duration(100 * sim.Microsecond)
	now := s.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(step)
		s.Run(now)
		a.CarrierBusy()
		now = now.Add(step)
		s.Run(now)
		a.LockStart()
		now = now.Add(step)
		s.Run(now)
		a.LockEnd(i%2 == 0)
		a.CarrierIdle()
		now = now.Add(step)
		s.Run(now)
		a.TxStart(0.2818)
		now = now.Add(step)
		s.Run(now)
		a.TxEnd()
	}
}

// BenchmarkEnergyAccountingBattery is the same cycle with a battery
// armed, covering the death-timer rescheduling cost.
func BenchmarkEnergyAccountingBattery(b *testing.B) {
	s := sim.NewScheduler()
	a := NewAccountant(s, Config{Profile: WaveLAN(), CapacityJ: 1e12})
	step := sim.Duration(100 * sim.Microsecond)
	now := s.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(step)
		s.Run(now)
		a.CarrierBusy()
		now = now.Add(step)
		s.Run(now)
		a.LockStart()
		now = now.Add(step)
		s.Run(now)
		a.LockEnd(i%2 == 0)
		a.CarrierIdle()
		now = now.Add(step)
		s.Run(now)
		a.TxStart(0.2818)
		now = now.Add(step)
		s.Run(now)
		a.TxEnd()
	}
}
