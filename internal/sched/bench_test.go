package sched_test

import (
	"testing"

	"hira/internal/core"
	"hira/internal/dram"
	"hira/internal/sched"
)

// steadyState drives a controller at a stable queue occupancy: the
// request source tops the read/write queues up every tick, so every tick
// exercises the full scheduling path the figure sweeps live in.
type steadyState struct {
	c    *sched.Controller
	step func() // c.Tick, or the test-only c.TickReference
	org  dram.Org
	rng  uint64
	tok  uint64
}

func newSteadyState(b *testing.B, reference bool, engine func(org dram.Org, tm dram.Timing) sched.RefreshEngine) *steadyState {
	b.Helper()
	org := dram.DefaultOrg()
	org.SubarraysPerBank = 8
	org.RowsPerSubarray = 16
	tm := dram.DDR4_2400(8)
	c, err := sched.NewController(sched.Config{Org: org, Timing: tm}, engine(org, tm))
	if err != nil {
		b.Fatal(err)
	}
	s := &steadyState{c: c, step: c.Tick, org: org, rng: 0xDECAF}
	if reference {
		s.step = c.TickReference
	}
	return s
}

func (s *steadyState) next() uint64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng
}

func (s *steadyState) tick() {
	reads, writes := s.c.QueueOccupancy()
	for reads+writes < 48 {
		s.tok++
		ok := s.c.Enqueue(sched.Request{
			Loc: dram.Location{
				BankID: dram.BankID{Bank: int(s.next() % uint64(s.org.BanksPerRank()))},
				Row:    int(s.next() % 24),
				Col:    int(s.next() % 64),
			},
			Write: s.next()%4 == 0,
			Token: s.tok,
		})
		if !ok {
			break
		}
		reads++
	}
	s.step()
}

func benchSteadyState(b *testing.B, reference bool, engine func(org dram.Org, tm dram.Timing) sched.RefreshEngine) {
	s := newSteadyState(b, reference, engine)
	// Reach steady state (queues populated, rows open, refresh schedule
	// live) before measuring.
	for i := 0; i < 20000; i++ {
		s.tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.tick()
	}
	cmds := s.c.Stats.Reads + s.c.Stats.Writes + s.c.Stats.ACTs + s.c.Stats.PREs + s.c.Stats.REFs
	b.ReportMetric(float64(cmds)/float64(b.N+20000), "cmds/tick")
}

// BenchmarkControllerSteadyState measures one controller tick under
// saturated demand with the conventional refresh engine; allocs/op must
// be ~0 (the freelisted queue nodes, pooled sequences, and scratch
// buffers make the steady state allocation-free).
func BenchmarkControllerSteadyState(b *testing.B) {
	benchSteadyState(b, false, func(org dram.Org, tm dram.Timing) sched.RefreshEngine {
		return sched.NewBaselineREF(org, tm)
	})
}

// BenchmarkControllerSteadyStateHiRA is the same loop with the HiRA-MC
// engine (periodic row refreshes + PARA), the heaviest per-tick engine.
func BenchmarkControllerSteadyStateHiRA(b *testing.B) {
	benchSteadyState(b, false, func(org dram.Org, tm dram.Timing) sched.RefreshEngine {
		tm.TREFW = 256 * dram.Microsecond
		m, err := core.New(core.Config{
			Org: org, Timing: tm,
			Periodic: core.PeriodicHiRA, Preventive: core.PreventiveHiRA,
			Pth: 0.1, RefSlack: 2 * tm.TRC,
			SPT:  core.NewSyntheticSPT(org.SubarraysPerBank, 0.32, 7),
			Seed: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		return m
	})
}

// BenchmarkControllerSteadyStateReference is the test-only seed-style
// tick-by-tick linear-scan oracle (TickReference) on the same workload,
// for before/after comparison.
func BenchmarkControllerSteadyStateReference(b *testing.B) {
	benchSteadyState(b, true, func(org dram.Org, tm dram.Timing) sched.RefreshEngine {
		return sched.NewBaselineREF(org, tm)
	})
}

// BenchmarkControllerSteadyStateGraphene runs the counter-table zoo
// engine in the same loop; the Misra-Gries update on every demand ACT and
// the fixed victim rings must keep the steady state allocation-free.
func BenchmarkControllerSteadyStateGraphene(b *testing.B) {
	benchSteadyState(b, false, func(org dram.Org, tm dram.Timing) sched.RefreshEngine {
		g, err := core.NewGraphene(core.GrapheneConfig{Org: org, Timing: tm, NRH: 1024, Counters: 32})
		if err != nil {
			b.Fatal(err)
		}
		return g
	})
}

// BenchmarkControllerSteadyStateRFM is the same loop with the RFM-style
// activation-budget engine.
func BenchmarkControllerSteadyStateRFM(b *testing.B) {
	benchSteadyState(b, false, func(org dram.Org, tm dram.Timing) sched.RefreshEngine {
		f, err := core.NewRFM(core.RFMConfig{Org: org, Timing: tm, RAAIMT: 4096})
		if err != nil {
			b.Fatal(err)
		}
		return f
	})
}
