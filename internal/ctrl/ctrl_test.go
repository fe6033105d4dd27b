package ctrl

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/power"
	"repro/internal/sim"
)

type ctrlNet struct {
	sched  *sim.Scheduler
	ch     *phys.Channel
	agents []*Agent
	regs   []*power.Registry
}

func newCtrlNet(t *testing.T, xs ...float64) *ctrlNet {
	t.Helper()
	n := &ctrlNet{sched: sim.NewScheduler()}
	n.ch = phys.NewChannel(n.sched, phys.NewTwoRayGround())
	for i, x := range xs {
		reg := power.NewRegistry(n.sched.Now, 0.7)
		a, err := NewAgent(500e3, packet.NodeID(i), n.sched, reg, rand.New(rand.NewSource(int64(i+1))))
		if err != nil {
			t.Fatal(err)
		}
		p := geom.Point{X: x}
		a.BindRadio(n.ch.AttachRadio(i, func() geom.Point { return p }, a))
		n.agents = append(n.agents, a)
		n.regs = append(n.regs, reg)
	}
	return n
}

func TestAnnouncementReachesNeighbours(t *testing.T) {
	n := newCtrlNet(t, 0, 100, 200)
	n.agents[0].Announce(1e-10, sim.Time(5*sim.Millisecond))
	n.sched.RunAll()
	if n.agents[0].Stats.Sent != 1 {
		t.Fatalf("Sent = %d", n.agents[0].Stats.Sent)
	}
	for i := 1; i <= 2; i++ {
		if n.agents[i].Stats.Received != 1 {
			t.Fatalf("agent %d Received = %d", i, n.agents[i].Stats.Received)
		}
		if n.regs[i].Active() != 1 {
			t.Fatalf("agent %d registry entries = %d", i, n.regs[i].Active())
		}
	}
	// The registry entry must block a transmission that would violate
	// the tolerance: gain at 100 m is ~5.06e-9, so max power delivers
	// 1.43e-9 >> 0.7e-10.
	if ok, _ := n.regs[1].Check(0.2818); ok {
		t.Fatal("violating transmission not blocked after announcement")
	}
	// A tiny transmission passes.
	if ok, _ := n.regs[1].Check(1e-6); !ok {
		t.Fatal("harmless transmission blocked")
	}
}

func TestAnnouncementGainLearning(t *testing.T) {
	n := newCtrlNet(t, 0, 100)
	n.agents[0].Announce(1e-10, sim.Time(5*sim.Millisecond))
	n.sched.RunAll()
	// Gain learned from the max-power broadcast must match the model.
	wantGain := n.ch.Model().ReceivedPower(power.MaxW, 100) / power.MaxW
	// Tolerance budget: p*gain <= 0.7*tol  =>  p <= 0.7*1e-10/gain.
	limit := 0.7 * 1e-10 / wantGain
	if ok, _ := n.regs[1].Check(limit * 0.99); !ok {
		t.Fatal("power just under the budget blocked")
	}
	if ok, _ := n.regs[1].Check(limit * 1.01); ok {
		t.Fatal("power just over the budget allowed")
	}
}

func TestOutOfRangeAnnouncementIgnored(t *testing.T) {
	n := newCtrlNet(t, 0, 600) // beyond even the sensing zone
	n.agents[0].Announce(1e-10, sim.Time(5*sim.Millisecond))
	n.sched.RunAll()
	if n.agents[1].Stats.Received != 0 || n.regs[1].Active() != 0 {
		t.Fatal("announcement crossed 600 m")
	}
}

func TestSimultaneousAnnouncementsCollide(t *testing.T) {
	// Two announcers equidistant from a listener, same instant: the
	// listener decodes neither (control-channel collision, paper
	// assumption 3).
	n := newCtrlNet(t, 0, 200, 100)
	n.agents[0].Announce(1e-10, sim.Time(5*sim.Millisecond))
	n.agents[1].Announce(2e-10, sim.Time(5*sim.Millisecond))
	n.sched.RunAll()
	l := n.agents[2]
	if l.Stats.Received != 0 {
		t.Fatalf("listener decoded %d frames from a symmetric collision", l.Stats.Received)
	}
	if l.Stats.Corrupted == 0 {
		t.Fatal("collision not observed")
	}
}

func TestBusyChannelDefersThenSends(t *testing.T) {
	n := newCtrlNet(t, 0, 100)
	// Occupy the channel briefly with a foreign transmission.
	fp := geom.Point{X: 50}
	foreign := n.ch.AttachRadio(99, func() geom.Point { return fp }, n.agents[0])
	_ = foreign
	blocker := n.ch.AttachRadio(98, func() geom.Point { return fp }, &nopHandler{})
	blocker.Transmit(0.2818, 48, 200*sim.Microsecond, []byte{0})
	n.sched.Schedule(50*sim.Microsecond, func() {
		n.agents[1].Announce(1e-10, sim.Time(10*sim.Millisecond))
	})
	n.sched.RunAll()
	if n.agents[1].Stats.Sent != 1 {
		t.Fatalf("deferred announcement never sent: %+v", n.agents[1].Stats)
	}
}

func TestAnnounceSkippedWhenTooLate(t *testing.T) {
	n := newCtrlNet(t, 0, 100)
	// Reception ends in 50 us; the 96 us frame cannot make it.
	n.agents[0].Announce(1e-10, sim.Time(50*sim.Microsecond))
	n.sched.RunAll()
	if n.agents[0].Stats.Sent != 0 || n.agents[0].Stats.Skipped != 1 {
		t.Fatalf("late announcement not skipped: %+v", n.agents[0].Stats)
	}
}

func TestAgentIDRange(t *testing.T) {
	sched := sim.NewScheduler()
	_, err := NewAgent(500e3, 300, sched, nil, rand.New(rand.NewSource(1)))
	if err == nil {
		t.Fatal("node ID 300 accepted for an 8-bit field")
	}
	_, err = NewAgent(0, 1, sched, nil, rand.New(rand.NewSource(1)))
	if err == nil {
		t.Fatal("zero bit rate accepted")
	}
}

func TestAirTime(t *testing.T) {
	n := newCtrlNet(t, 0)
	// 48 bits at 500 kbps = 96 us.
	if got := n.agents[0].airTime(); got != 96*sim.Microsecond {
		t.Fatalf("airTime = %v, want 96us", got)
	}
}

type nopHandler struct{}

func (nopHandler) RadioRxBegin(*phys.Transmission, float64)  {}
func (nopHandler) RadioRx(*phys.Transmission, float64, bool) {}
func (nopHandler) RadioCarrierBusy()                         {}
func (nopHandler) RadioCarrierIdle()                         {}
func (nopHandler) RadioTxDone(*phys.Transmission)            {}
