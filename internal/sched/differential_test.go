package sched_test

// Differential proof for the event-driven scheduler core: the optimized
// controller (per-bank indexed queues, idle-tick skipping, canACT
// memoization, pooled sequences) must emit exactly the same dram.Command
// stream and sched.Stats as the seed-style tick-by-tick reference
// (Controller.TickReference, test-only) for every refresh policy the
// figures exercise.

import (
	"testing"

	"hira/internal/core"
	"hira/internal/dram"
	"hira/internal/dram/dramtest"
	"hira/internal/sched"
	"hira/internal/workload"
)

// diffOrg is small enough for fast runs but keeps multiple channels,
// ranks, and bank groups in play (several of the historical skip bugs —
// stale engine events masking another bank's arming time, write-drain
// hysteresis phase drift — only surfaced with more than one channel).
func diffOrg() dram.Org {
	o := dram.DefaultOrg()
	o.SubarraysPerBank = 8
	o.RowsPerSubarray = 16 // 128 rows per bank
	o.Channels = 2
	o.RanksPerChannel = 2
	return o
}

func diffTiming() dram.Timing {
	t := dram.DDR4_2400(8)
	// Shrink the retention window so periodic refresh work is dense in a
	// short run.
	t.TREFW = 256 * dram.Microsecond
	return t
}

// diffEngine builds a fresh refresh engine for one controller instance;
// both controllers of a pair get identically configured engines.
type diffPolicy struct {
	name string
	mk   func(t *testing.T, org dram.Org, tm dram.Timing) sched.RefreshEngine
}

func diffPolicies() []diffPolicy {
	mkCore := func(cfg core.Config) func(*testing.T, dram.Org, dram.Timing) sched.RefreshEngine {
		return func(t *testing.T, org dram.Org, tm dram.Timing) sched.RefreshEngine {
			cfg := cfg
			cfg.Org = org
			cfg.Timing = tm
			if cfg.Periodic == core.PeriodicHiRA || cfg.Preventive == core.PreventiveHiRA {
				cfg.SPT = core.NewSyntheticSPT(org.SubarraysPerBank, 0.32, 7)
			}
			m, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	return []diffPolicy{
		{"NoRefresh", func(t *testing.T, org dram.Org, tm dram.Timing) sched.RefreshEngine {
			return sched.NoRefresh{}
		}},
		{"Baseline", func(t *testing.T, org dram.Org, tm dram.Timing) sched.RefreshEngine {
			return sched.NewBaselineREF(org, tm)
		}},
		{"HiRA-2", mkCore(core.Config{Periodic: core.PeriodicHiRA, Seed: 11})},
		{"PARA", mkCore(core.Config{
			Periodic: core.PeriodicREF, Preventive: core.PreventiveImmediate, Pth: 0.3, Seed: 11})},
		{"PARA+HiRA-4", mkCore(core.Config{
			Periodic: core.PeriodicREF, Preventive: core.PreventiveHiRA, Pth: 0.3, Seed: 11})},
		{"Graphene", func(t *testing.T, org dram.Org, tm dram.Timing) sched.RefreshEngine {
			g, err := core.NewGraphene(core.GrapheneConfig{Org: org, Timing: tm, NRH: 64, Counters: 8})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"RFM", func(t *testing.T, org dram.Org, tm dram.Timing) sched.RefreshEngine {
			f, err := core.NewRFM(core.RFMConfig{Org: org, Timing: tm, RAAIMT: 64})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
	}
}

// diffDrive replays one deterministic mixed read/write request schedule
// against a controller, returning the emitted command stream. Enqueue
// results are also recorded (queue-full rejections must coincide). tick
// advances c by one command clock (c.Tick or c.TickReference).
func diffDrive(t *testing.T, c *sched.Controller, org dram.Org, ticks int, tick func()) ([]dram.Command, []bool) {
	t.Helper()
	var cmds []dram.Command
	c.CommandHook = func(cmd dram.Command) { cmds = append(cmds, cmd) }
	var accepts []bool
	rng := uint64(0xC0FFEE)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	tok := uint64(0)
	for i := 0; i < ticks; i++ {
		// Phase-modulated arrivals: bursty mixed traffic, then
		// write-only stretches (which park the read queue at zero and
		// walk the drain hysteresis through its oscillating regime),
		// then silence. Queues cycle between full, draining, and empty —
		// the regimes where the idle skipper and write hysteresis
		// engage.
		phase := (i / 512) % 4
		n := 0
		switch next() % 8 {
		case 0, 1:
			n = 1
		case 2:
			n = 3
		case 3:
			n = 8 // burst: drives the queues toward full
		}
		if phase == 3 {
			n = 0 // silence: queues drain dry
		}
		for j := 0; j < n; j++ {
			tok++
			write := next()%3 == 0
			if phase == 2 {
				write = true
			}
			// Few rows per bank: frequent row hits and conflicts.
			loc := dram.Location{
				BankID: dram.BankID{
					Channel: int(next() % uint64(org.Channels)),
					Rank:    int(next() % uint64(org.RanksPerChannel)),
					Bank:    int(next() % uint64(org.BanksPerRank())),
				},
				Row: int(next() % 12),
				Col: int(next() % 64),
			}
			accepts = append(accepts, c.Enqueue(sched.Request{
				Loc: loc, Write: write, Core: 0, Token: tok,
			}))
		}
		tick()
	}
	// Drain with no further arrivals: long idle windows with refresh-only
	// traffic, the deepest skip territory.
	for i := 0; i < ticks/2; i++ {
		tick()
	}
	return cmds, accepts
}

// stepper returns c's production tick, or the test-only reference tick.
func stepper(c *sched.Controller, reference bool) func() {
	if reference {
		return c.TickReference
	}
	return c.Tick
}

func TestControllerDifferential(t *testing.T) {
	org := diffOrg()
	tm := diffTiming()
	ticks := 120000
	if testing.Short() {
		ticks = 30000
	}
	for _, pol := range diffPolicies() {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			run := func(reference bool) ([]dram.Command, []bool, sched.Stats, dram.Time) {
				c, err := sched.NewController(sched.Config{Org: org, Timing: tm}, pol.mk(t, org, tm))
				if err != nil {
					t.Fatal(err)
				}
				cmds, accepts := diffDrive(t, c, org, ticks, stepper(c, reference))
				return cmds, accepts, c.Stats, c.Now()
			}
			refCmds, refAcc, refStats, refNow := run(true)
			optCmds, optAcc, optStats, optNow := run(false)

			if len(refCmds) == 0 {
				t.Fatal("reference run emitted no commands; the workload is not driving the controller")
			}
			if optNow != refNow {
				t.Fatalf("clocks diverged: ref %v opt %v", refNow, optNow)
			}
			if len(optCmds) != len(refCmds) {
				t.Fatalf("command counts diverged: ref %d opt %d", len(refCmds), len(optCmds))
			}
			for i := range refCmds {
				if optCmds[i] != refCmds[i] {
					t.Fatalf("command %d diverged:\nref: %+v\nopt: %+v", i, refCmds[i], optCmds[i])
				}
			}
			if len(optAcc) != len(refAcc) {
				t.Fatalf("enqueue counts diverged: ref %d opt %d", len(refAcc), len(optAcc))
			}
			for i := range refAcc {
				if optAcc[i] != refAcc[i] {
					t.Fatalf("enqueue acceptance %d diverged: ref %v opt %v", i, refAcc[i], optAcc[i])
				}
			}
			if optStats != refStats {
				t.Fatalf("stats diverged:\nref: %+v\nopt: %+v", refStats, optStats)
			}
		})
	}
}

// diffDriveSource replays a workload source's access stream against a
// controller, approximating a 4-wide core: each tick spends up to four
// instruction slots on the stream's gaps, then tries to enqueue the next
// access through the MOP mapper. A rejected enqueue retries next tick
// (exactly as the cpu model does), so each run's request schedule is a
// deterministic function of its own controller's queue state — if ref
// and opt diverge there, the acceptance comparison catches it.
func diffDriveSource(t *testing.T, c *sched.Controller, org dram.Org, src workload.Source, seed uint64, ticks int, tick func()) ([]dram.Command, []bool) {
	t.Helper()
	var cmds []dram.Command
	c.CommandHook = func(cmd dram.Command) { cmds = append(cmds, cmd) }
	var accepts []bool
	stream := src.Stream(seed)
	mapper := dram.NewMOPMapper(org)
	gap := 0
	var pending *workload.Access
	tok := uint64(0)
	for i := 0; i < ticks; i++ {
		budget := 4
		for budget > 0 {
			if gap > 0 {
				n := gap
				if n > budget {
					n = budget
				}
				gap -= n
				budget -= n
				continue
			}
			if pending == nil {
				a := stream.Next()
				pending = &a
				// Compress gaps so even moderate-MPKI sources keep the
				// queues busy enough to exercise drain/skip regimes.
				gap = a.Gap / 8
				continue
			}
			tok++
			ok := c.Enqueue(sched.Request{
				Loc: mapper.Map(pending.Addr), Write: pending.Write, Core: 0, Token: tok,
			})
			accepts = append(accepts, ok)
			if !ok {
				break // queue full: retry next tick
			}
			pending = nil
			budget--
		}
		tick()
	}
	// Drain with no further arrivals: refresh-only idle territory.
	for i := 0; i < ticks/2; i++ {
		tick()
	}
	return cmds, accepts
}

// TestControllerDifferentialWorkloads re-proves the bit-identical
// guarantee of the event-driven scheduler on the new workload paths:
// request schedules derived from a user-defined custom profile and from
// a recorded trace (replayed through the trace player), not just the
// synthetic schedules of TestControllerDifferential.
func TestControllerDifferentialWorkloads(t *testing.T) {
	custom := workload.Profile{Name: "hot-random", MPKI: 80, RowLocality: 0.1, FootprintMB: 4, WriteFrac: 0.5}
	if err := custom.Validate(); err != nil {
		t.Fatal(err)
	}
	trace, err := workload.Record("hot-random-rec", custom, 99, 40000)
	if err != nil {
		t.Fatal(err)
	}
	streamy := workload.Profile{Name: "streamy", MPKI: 30, RowLocality: 0.9, FootprintMB: 16, WriteFrac: 0.2}
	org := diffOrg()
	// A many-sided hammering source: row-conflict-dense, read-only, with a
	// duty cycle and decoy rows — the access pattern most likely to expose
	// a divergence in the event-driven scheduler's ACT bookkeeping.
	attack, err := workload.NewAttack(workload.AttackSpec{
		Kind: workload.AttackMany, VictimRow: 64, Aggressors: 5,
		BurstAccesses: 32, IdleGap: 400, Decoys: 1,
	}, org)
	if err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		src  workload.Source
	}{
		{"custom-profile", custom},
		{"custom-streamy", streamy},
		{"trace", trace},
		{"attack-many", attack},
	}

	tm := diffTiming()
	ticks := 60000
	if testing.Short() {
		ticks = 20000
	}
	for _, pol := range diffPolicies() {
		for _, s := range sources {
			pol, s := pol, s
			t.Run(pol.name+"/"+s.name, func(t *testing.T) {
				t.Parallel()
				run := func(reference bool) ([]dram.Command, []bool, sched.Stats) {
					c, err := sched.NewController(sched.Config{Org: org, Timing: tm}, pol.mk(t, org, tm))
					if err != nil {
						t.Fatal(err)
					}
					cmds, accepts := diffDriveSource(t, c, org, s.src, 5, ticks, stepper(c, reference))
					return cmds, accepts, c.Stats
				}
				refCmds, refAcc, refStats := run(true)
				optCmds, optAcc, optStats := run(false)
				if len(refCmds) == 0 {
					t.Fatal("reference run emitted no commands; the workload is not driving the controller")
				}
				if len(optCmds) != len(refCmds) {
					t.Fatalf("command counts diverged: ref %d opt %d", len(refCmds), len(optCmds))
				}
				for i := range refCmds {
					if optCmds[i] != refCmds[i] {
						t.Fatalf("command %d diverged:\nref: %+v\nopt: %+v", i, refCmds[i], optCmds[i])
					}
				}
				if len(optAcc) != len(refAcc) {
					t.Fatalf("enqueue counts diverged: ref %d opt %d", len(refAcc), len(optAcc))
				}
				for i := range refAcc {
					if optAcc[i] != refAcc[i] {
						t.Fatalf("enqueue acceptance %d diverged: ref %v opt %v", i, refAcc[i], optAcc[i])
					}
				}
				if optStats != refStats {
					t.Fatalf("stats diverged:\nref: %+v\nopt: %+v", refStats, optStats)
				}
			})
		}
	}
}

// TestControllerDifferentialVerified re-runs one HiRA configuration with
// the timing verifier and refresh auditor attached to the optimized path,
// so skipping cannot hide a timing violation the reference would commit
// identically.
func TestControllerDifferentialVerified(t *testing.T) {
	org := diffOrg()
	tm := diffTiming()
	eng := diffPolicies()[2] // HiRA-2
	c, err := sched.NewController(sched.Config{Org: org, Timing: tm}, eng.mk(t, org, tm))
	if err != nil {
		t.Fatal(err)
	}
	v := dramtest.NewVerifier(org, tm)
	v.MaxT1 = tm.T1 + tm.TCK
	v.MaxT2 = tm.T2 + tm.TCK
	c.CommandHook = func(cmd dram.Command) { v.Check(cmd) }
	rng := uint64(5)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 150000; i++ {
		if i%5 == 0 {
			c.Enqueue(sched.Request{Loc: dram.Location{
				BankID: dram.BankID{
					Rank: int(next() % uint64(org.RanksPerChannel)),
					Bank: int(next() % uint64(org.BanksPerRank())),
				},
				Row: int(next() % uint64(org.RowsPerBank())),
			}, Write: next()%4 == 0, Token: uint64(i)})
		}
		c.Tick()
	}
	if err := v.Err(); err != nil {
		t.Fatalf("timing violation on optimized path: %v", err)
	}
}
