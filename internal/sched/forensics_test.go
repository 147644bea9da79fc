package sched_test

// Tests for the RowHammer forensics ledger: exact per-row activation
// accounting on a hand-built hammering schedule, useful-vs-wasted
// attribution of preventive refreshes under PARA and PARA+HiRA, and the
// differential proof that enabling forensics leaves the command stream
// and Stats bit-identical.

import (
	"testing"

	"hira/internal/core"
	"hira/internal/dram"
	"hira/internal/sched"
)

// fxHarness drives a controller one request at a time, so FR-FCFS cannot
// reorder the schedule: each activation lands exactly where the test
// placed it.
type fxHarness struct {
	t    *testing.T
	c    *sched.Controller
	tok  uint64
	done map[uint64]bool
}

func newFxHarness(t *testing.T, org dram.Org, tm dram.Timing, engine sched.RefreshEngine, cfg sched.ForensicsConfig) *fxHarness {
	t.Helper()
	c, err := sched.NewController(sched.Config{Org: org, Timing: tm}, engine)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableForensics(cfg)
	h := &fxHarness{t: t, c: c, done: map[uint64]bool{}}
	c.OnComplete = func(core int, token uint64, at dram.Time) { h.done[token] = true }
	return h
}

// readWait enqueues one read and ticks until it completes, so the next
// read is guaranteed to arrive at an empty queue.
func (h *fxHarness) readWait(loc dram.Location) {
	h.t.Helper()
	h.tok++
	if !h.c.Enqueue(sched.Request{Loc: loc, Core: 0, Token: h.tok}) {
		h.t.Fatal("enqueue failed")
	}
	for i := 0; i < 20000; i++ {
		if h.done[h.tok] {
			return
		}
		h.c.Tick()
	}
	h.t.Fatalf("request %d never completed", h.tok)
}

// TestForensicsLedgerHammering hand-builds a hammering schedule with known
// per-row activation counts and asserts the ledger's exact values: demand
// ACT totals, per-bank maxima, threshold-crossing tallies, and the flight
// recorder firing on the top threshold. NoRefresh means nothing ever
// resets a count, so every number is computable by hand.
func TestForensicsLedgerHammering(t *testing.T) {
	org := smallOrgX()
	tm := dram.DDR4_2400(8)
	h := newFxHarness(t, org, tm, sched.NoRefresh{}, sched.ForensicsConfig{
		Thresholds:   []uint32{4, 8},
		HotThreshold: 4,
		Recorder:     true,
	})

	// Bank 0: alternate rows 5 and 9. Every read conflicts with the open
	// row, so each is exactly one ACT: 10 per row.
	bank0 := dram.BankID{Channel: 0, Rank: 0, Bank: 0}
	for i := 0; i < 10; i++ {
		h.readWait(dram.Location{BankID: bank0, Row: 5})
		h.readWait(dram.Location{BankID: bank0, Row: 9})
	}
	// Bank 1: alternate rows 3 and 7, three ACTs each — below the first
	// threshold, so it contributes activations but no crossings.
	bank1 := dram.BankID{Channel: 0, Rank: 0, Bank: 1}
	for i := 0; i < 3; i++ {
		h.readWait(dram.Location{BankID: bank1, Row: 3})
		h.readWait(dram.Location{BankID: bank1, Row: 7})
	}

	rep, ok := h.c.ForensicsReport()
	if !ok {
		t.Fatal("forensics report missing")
	}
	tl := rep.Tally
	if tl.DemandACTs != 26 {
		t.Errorf("DemandACTs = %d, want 26 (20 in bank 0 + 6 in bank 1)", tl.DemandACTs)
	}
	if tl.RefreshACTs != 0 || tl.RowsReset != 0 || tl.REFRowsReset != 0 {
		t.Errorf("refresh tallies nonzero under NoRefresh: %+v", tl)
	}
	if rep.MaxInterrefACTs != 10 {
		t.Errorf("MaxInterrefACTs = %d, want 10", rep.MaxInterrefACTs)
	}
	if rep.BankMax[0] != 10 {
		t.Errorf("BankMax[0] = %d, want 10", rep.BankMax[0])
	}
	if rep.BankMax[1] != 3 {
		t.Errorf("BankMax[1] = %d, want 3", rep.BankMax[1])
	}
	for i, m := range rep.BankMax[2:] {
		if m != 0 {
			t.Errorf("BankMax[%d] = %d, want 0 (bank never touched)", i+2, m)
		}
	}
	// Rows 5 and 9 each cross 4 once (on their 4th ACT) and 8 once (on
	// their 8th); rows 3 and 7 stop at 3 and cross nothing.
	if tl.Crossings[0] != 2 || tl.Crossings[1] != 2 {
		t.Errorf("Crossings = %v, want [2 2 0 0]", tl.Crossings)
	}
	if tl.PreventiveUseful != 0 || tl.PreventiveWasted != 0 || tl.PeriodicRowRefreshes != 0 {
		t.Errorf("mitigation tallies nonzero with no refresh engine: %+v", tl)
	}
	// Two top-threshold crossings fired the flight recorder; the log must
	// contain the hammering commands around them.
	if len(rep.Events) == 0 {
		t.Fatal("flight recorder captured no events despite top-threshold crossings")
	}
	acts := 0
	for _, e := range rep.Events {
		if e.Kind == "ACT" && e.Bank == 0 && (e.Row == 5 || e.Row == 9) {
			acts++
		}
	}
	if acts == 0 {
		t.Errorf("no hammering ACTs in the %d recorded events", len(rep.Events))
	}
}

// smallOrgX mirrors sched_test.smallOrg for this external test package.
func smallOrgX() dram.Org {
	o := dram.DefaultOrg()
	o.SubarraysPerBank = 8
	o.RowsPerSubarray = 16 // 128 rows per bank
	return o
}

// fxPARAEngine builds a PARA refresh engine (optionally with HiRA
// preventive parallelization) for the attribution tests.
func fxPARAEngine(t *testing.T, org dram.Org, tm dram.Timing, hira bool) sched.RefreshEngine {
	t.Helper()
	cfg := core.Config{
		Org: org, Timing: tm,
		Periodic: core.PeriodicREF, Preventive: core.PreventiveImmediate,
		Pth: 0.5, Seed: 42,
	}
	if hira {
		cfg.Preventive = core.PreventiveHiRA
		cfg.SPT = core.NewSyntheticSPT(org.SubarraysPerBank, 0.32, 7)
	}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// hammerFar drives n alternating activations each onto two rows far from
// the REF rotation pointer, so rank REFs never reset the aggressors'
// counts during the run and the attribution is exactly predictable.
func hammerFar(h *fxHarness, n int) {
	bank := dram.BankID{Channel: 0, Rank: 0, Bank: 0}
	for i := 0; i < n; i++ {
		h.readWait(dram.Location{BankID: bank, Row: 50})
		h.readWait(dram.Location{BankID: bank, Row: 54})
	}
}

// TestForensicsPreventiveAttribution checks useful-vs-wasted attribution
// for PARA and PARA+HiRA. With HotThreshold=1 every preventive refresh is
// triggered by an aggressor whose count is still nonzero at refresh time
// (the aggressors sit far from the REF rotation), so the wasted count
// must be exactly zero; with an unreachable HotThreshold the same
// schedule must classify every preventive refresh as wasted. Both runs
// must satisfy the accounting identity against the scheduler's own
// refresh statistics.
func TestForensicsPreventiveAttribution(t *testing.T) {
	org := smallOrgX()
	tm := dram.DDR4_2400(8)
	for _, tc := range []struct {
		name string
		hira bool
		hot  uint32
	}{
		{"PARA/hot", false, 1},
		{"PARA/cold", false, 1 << 30},
		{"PARA+HiRA/hot", true, 1},
		{"PARA+HiRA/cold", true, 1 << 30},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h := newFxHarness(t, org, tm, fxPARAEngine(t, org, tm, tc.hira), sched.ForensicsConfig{
				Thresholds:   []uint32{16, 64},
				HotThreshold: tc.hot,
			})
			hammerFar(h, 150)
			// Let queued preventive refreshes drain to their deadlines.
			for i := 0; i < 50000; i++ {
				h.c.Tick()
			}

			rep, _ := h.c.ForensicsReport()
			tl := rep.Tally
			st := h.c.Stats

			// The identity tying the ledger to the scheduler's counters:
			// every explicit refresh ACT is classified exactly once.
			wantACTs := st.StandaloneRefreshes + 2*st.HiRAPairs + st.HiRAPiggybacks
			if tl.RefreshACTs != wantACTs {
				t.Errorf("RefreshACTs = %d, want standalone+2*pairs+piggybacks = %d", tl.RefreshACTs, wantACTs)
			}
			classified := tl.PreventiveUseful + tl.PreventiveWasted + tl.PeriodicRowRefreshes
			if classified != tl.RefreshACTs {
				t.Errorf("useful+wasted+periodic = %d, want RefreshACTs = %d", classified, tl.RefreshACTs)
			}
			// PeriodicREF does retention via rank REF, not row ACTs, so
			// every classified refresh here is preventive.
			if tl.PeriodicRowRefreshes != 0 {
				t.Errorf("PeriodicRowRefreshes = %d, want 0 under PeriodicREF", tl.PeriodicRowRefreshes)
			}
			if tl.RefreshACTs == 0 {
				t.Fatal("PARA issued no preventive refreshes; the schedule is not driving Pth sampling")
			}
			if tc.hot == 1 && tl.PreventiveWasted != 0 {
				t.Errorf("PreventiveWasted = %d, want 0 (every victim neighbors a live aggressor)", tl.PreventiveWasted)
			}
			if tc.hot != 1 && tl.PreventiveUseful != 0 {
				t.Errorf("PreventiveUseful = %d, want 0 (HotThreshold unreachable)", tl.PreventiveUseful)
			}
			if tc.hira {
				if tl.PiggybackPreventive != st.HiRAPiggybacks {
					t.Errorf("PiggybackPreventive = %d, want HiRAPiggybacks = %d", tl.PiggybackPreventive, st.HiRAPiggybacks)
				}
				if tl.PiggybackPeriodic != 0 {
					t.Errorf("PiggybackPeriodic = %d, want 0 (no periodic row entries)", tl.PiggybackPeriodic)
				}
			} else if tl.PiggybackPreventive != 0 || tl.PiggybackPeriodic != 0 {
				t.Errorf("piggyback tallies nonzero without HiRA: %+v", tl)
			}
		})
	}
}

// TestForensicsDifferential proves the ledger is purely observational:
// for every refresh policy the figures exercise, a controller with
// forensics (and the flight recorder) enabled emits exactly the same
// command stream, enqueue decisions, Stats, and final clock as one
// without.
func TestForensicsDifferential(t *testing.T) {
	org := diffOrg()
	tm := diffTiming()
	ticks := 60000
	if testing.Short() {
		ticks = 20000
	}
	for _, pol := range diffPolicies() {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			t.Parallel()
			run := func(forensics bool) ([]dram.Command, []bool, sched.Stats, dram.Time) {
				c, err := sched.NewController(sched.Config{Org: org, Timing: tm}, pol.mk(t, org, tm))
				if err != nil {
					t.Fatal(err)
				}
				if forensics {
					c.EnableForensics(sched.ForensicsConfig{
						Thresholds:   []uint32{8, 32},
						HotThreshold: 8,
						Recorder:     true,
					})
				}
				cmds, accepts := diffDrive(t, c, org, ticks, c.Tick)
				return cmds, accepts, c.Stats, c.Now()
			}
			offCmds, offAcc, offStats, offNow := run(false)
			onCmds, onAcc, onStats, onNow := run(true)

			if len(offCmds) == 0 {
				t.Fatal("baseline run emitted no commands; the workload is not driving the controller")
			}
			if onNow != offNow {
				t.Fatalf("clocks diverged: off %v on %v", offNow, onNow)
			}
			if len(onCmds) != len(offCmds) {
				t.Fatalf("command counts diverged: off %d on %d", len(offCmds), len(onCmds))
			}
			for i := range offCmds {
				if onCmds[i] != offCmds[i] {
					t.Fatalf("command %d diverged:\noff: %+v\non:  %+v", i, offCmds[i], onCmds[i])
				}
			}
			if len(onAcc) != len(offAcc) {
				t.Fatalf("enqueue counts diverged: off %d on %d", len(offAcc), len(onAcc))
			}
			for i := range offAcc {
				if onAcc[i] != offAcc[i] {
					t.Fatalf("enqueue acceptance %d diverged: off %v on %v", i, offAcc[i], onAcc[i])
				}
			}
			if onStats != offStats {
				t.Fatalf("stats diverged:\noff: %+v\non:  %+v", offStats, onStats)
			}
		})
	}
}

// BenchmarkControllerSteadyStateForensics is BenchmarkControllerSteadyState
// with the activation ledger enabled: the hot path must stay 0 allocs/op
// and within a few percent of the plain controller.
func BenchmarkControllerSteadyStateForensics(b *testing.B) {
	s := newSteadyState(b, false, func(org dram.Org, tm dram.Timing) sched.RefreshEngine {
		return sched.NewBaselineREF(org, tm)
	})
	s.c.EnableForensics(sched.ForensicsConfig{Thresholds: []uint32{512, 1024}, HotThreshold: 512})
	for i := 0; i < 20000; i++ {
		s.tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.tick()
	}
}

// BenchmarkControllerSteadyStateForensicsRecorder adds the flight
// recorder on top of the ledger (pre-sized ring and event log, so still
// allocation-free).
func BenchmarkControllerSteadyStateForensicsRecorder(b *testing.B) {
	s := newSteadyState(b, false, func(org dram.Org, tm dram.Timing) sched.RefreshEngine {
		return sched.NewBaselineREF(org, tm)
	})
	s.c.EnableForensics(sched.ForensicsConfig{
		Thresholds: []uint32{512, 1024}, HotThreshold: 512, Recorder: true,
	})
	for i := 0; i < 20000; i++ {
		s.tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.tick()
	}
}

// TestForensicsMitigationEfficacy is the ledger-level proof behind the
// mitigation zoo: a double-sided hammer with no refresh engine drives the
// victim's exposure past the RowHammer threshold (a VictimCrossings entry
// at NRH), while the same hammer under a well-provisioned Graphene
// tracker never lets any victim's exposure reach NRH — its preventive
// refreshes restore the victim's charge before the neighbors' activations
// accumulate.
func TestForensicsMitigationEfficacy(t *testing.T) {
	org := smallOrgX()
	tm := dram.DDR4_2400(8)
	const nrh = 64
	fxCfg := sched.ForensicsConfig{Thresholds: []uint32{nrh / 2, nrh}}

	// Alternate the two aggressors flanking victim row 50: each pair of
	// activations bumps the victim's exposure by two.
	hammer := func(h *fxHarness) {
		bank := dram.BankID{Channel: 0, Rank: 0, Bank: 0}
		for i := 0; i < nrh; i++ {
			h.readWait(dram.Location{BankID: bank, Row: 49})
			h.readWait(dram.Location{BankID: bank, Row: 51})
		}
	}

	t.Run("unmitigated", func(t *testing.T) {
		h := newFxHarness(t, org, tm, sched.NoRefresh{}, fxCfg)
		hammer(h)
		rep, _ := h.c.ForensicsReport()
		// Row 50 accumulates all 128 neighbor activations; rows 48 and 52
		// get 64 each. All three cross both thresholds.
		if rep.MaxVictimExposure != 2*nrh {
			t.Errorf("MaxVictimExposure = %d, want %d", rep.MaxVictimExposure, 2*nrh)
		}
		if vc := rep.Tally.VictimCrossings; vc[0] != 3 || vc[1] != 3 {
			t.Errorf("VictimCrossings = %v, want [3 3 0 0]", vc)
		}
	})

	t.Run("graphene", func(t *testing.T) {
		g, err := core.NewGraphene(core.GrapheneConfig{Org: org, Timing: tm, NRH: nrh, Counters: 8})
		if err != nil {
			t.Fatal(err)
		}
		h := newFxHarness(t, org, tm, g, fxCfg)
		hammer(h)
		rep, _ := h.c.ForensicsReport()
		if g.Stats().Triggers == 0 {
			t.Fatal("the tracker never tripped; the hammer is not reaching NRH/4")
		}
		if g.Stats().VictimRefreshes == 0 {
			t.Fatal("no victim refreshes performed despite tracker trips")
		}
		if rep.Tally.VictimCrossings[1] != 0 {
			t.Errorf("VictimCrossings[NRH] = %d under Graphene, want 0", rep.Tally.VictimCrossings[1])
		}
		if rep.MaxVictimExposure >= nrh {
			t.Errorf("MaxVictimExposure = %d, want < %d", rep.MaxVictimExposure, nrh)
		}
	})
}
