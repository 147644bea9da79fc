package core

import (
	"math"
	"testing"
	"testing/quick"

	"hira/internal/dram"
	"hira/internal/dram/dramtest"
	"hira/internal/sched"
)

func smallOrg() dram.Org {
	o := dram.DefaultOrg()
	o.SubarraysPerBank = 8
	o.RowsPerSubarray = 16 // 128 rows/bank
	return o
}

// shortTiming shrinks the retention window so full refresh sweeps fit in
// short simulations while keeping the paper's per-bank refresh cadence
// (~2us per row refresh vs the paper's 975ns).
func shortTiming() dram.Timing {
	t := dram.DDR4_2400(8)
	t.TREFW = 256 * dram.Microsecond
	return t
}

type testbench struct {
	c *sched.Controller
	v *dramtest.Verifier
	a *dramtest.RefreshAuditor
	m *HiRAMC
}

func newBench(t *testing.T, org dram.Org, tm dram.Timing, cfg Config) *testbench {
	t.Helper()
	cfg.Org = org
	cfg.Timing = tm
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sched.NewController(sched.Config{Org: org, Timing: tm}, m)
	if err != nil {
		t.Fatal(err)
	}
	b := &testbench{c: c, m: m}
	b.v = dramtest.NewVerifier(org, tm)
	b.v.MaxT1 = tm.T1 + tm.TCK
	b.v.MaxT2 = tm.T2 + tm.TCK
	b.a = dramtest.NewRefreshAuditor(org, tm)
	c.CommandHook = func(cmd dram.Command) {
		b.v.Check(cmd)
		b.a.Observe(cmd)
	}
	return b
}

// runWithDemand ticks the controller while feeding a demand stream.
func (b *testbench) runWithDemand(ticks int, everyN int, rows int) {
	rng := uint64(99)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	tok := uint64(0)
	org := b.c.Config().Org
	for i := 0; i < ticks; i++ {
		if everyN > 0 && i%everyN == 0 {
			tok++
			b.c.Enqueue(sched.Request{
				Loc: dram.Location{
					BankID: dram.BankID{Bank: int(next() % uint64(org.BanksPerRank()))},
					Row:    int(next() % uint64(rows)),
					Col:    int(next() % 16),
				},
				Write: next()%5 == 0,
				Token: tok,
			})
		}
		b.c.Tick()
	}
}

func TestSPTProperties(t *testing.T) {
	s := NewSyntheticSPT(128, 0.32, 7)
	f := func(a, b uint8) bool {
		i, j := int(a)%128, int(b)%128
		if i == j {
			return !s.Isolated(i, j)
		}
		if d := i - j; d == 1 || d == -1 {
			return !s.Isolated(i, j)
		}
		return s.Isolated(i, j) == s.Isolated(j, i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if cov := s.Coverage(); math.Abs(cov-0.32) > 0.04 {
		t.Errorf("SPT coverage = %.3f, want ~0.32 (§7)", cov)
	}
	for sa := 0; sa < 128; sa++ {
		for _, p := range s.Partners(sa) {
			if !s.Isolated(sa, p) {
				t.Fatalf("partner list inconsistent at (%d,%d)", sa, p)
			}
		}
	}
}

func TestNewValidatesConfig(t *testing.T) {
	org := smallOrg()
	tm := shortTiming()
	if _, err := New(Config{Org: org, Timing: tm, Periodic: PeriodicHiRA}); err == nil {
		t.Error("accepted PeriodicHiRA without SPT")
	}
	if _, err := New(Config{Org: org, Timing: tm, Preventive: PreventiveImmediate, Pth: 2}); err == nil {
		t.Error("accepted Pth > 1")
	}
}

func TestPeriodicHiRANoTimingViolations(t *testing.T) {
	org := smallOrg()
	tm := shortTiming()
	spt := NewSyntheticSPT(org.SubarraysPerBank, 0.32, 7)
	b := newBench(t, org, tm, Config{
		Periodic: PeriodicHiRA, RefSlack: 2 * tm.TRC, SPT: spt, Seed: 1,
	})
	b.runWithDemand(400000, 10, org.RowsPerBank()) // ~333us with demand
	if err := b.v.Err(); err != nil {
		t.Fatalf("timing violation: %v", err)
	}
	if b.c.Stats.HiRAPiggybacks == 0 {
		t.Error("no refresh-access parallelizations under demand")
	}
	if b.c.Stats.REFs != 0 {
		t.Errorf("PeriodicHiRA issued %d REF commands", b.c.Stats.REFs)
	}
}

func TestPeriodicHiRARefreshCompleteness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-millisecond simulation")
	}
	org := smallOrg()
	tm := shortTiming()
	spt := NewSyntheticSPT(org.SubarraysPerBank, 0.32, 7)
	b := newBench(t, org, tm, Config{
		Periodic: PeriodicHiRA, RefSlack: 4 * tm.TRC, SPT: spt, Seed: 1,
	})
	// Demand concentrated on few rows (subarray 0) so piggybacking is
	// constrained: the starvation guard must still cover every subarray.
	ticks := int(320 * dram.Microsecond / tm.TCK)
	b.runWithDemand(ticks, 25, 8)
	if err := b.v.Err(); err != nil {
		t.Fatalf("timing violation: %v", err)
	}
	if stale := b.a.StaleAt(b.c.Now(), 3); len(stale) != 0 {
		t.Errorf("stale rows under HiRA periodic refresh: %v", stale)
	}
}

func TestPeriodicHiRAIdleRefreshCompleteness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-millisecond simulation")
	}
	// With no demand at all, every refresh goes through the deadline
	// path (standalone or refresh-refresh pair); completeness must hold.
	org := smallOrg()
	tm := shortTiming()
	spt := NewSyntheticSPT(org.SubarraysPerBank, 0.32, 7)
	b := newBench(t, org, tm, Config{
		Periodic: PeriodicHiRA, RefSlack: 2 * tm.TRC, SPT: spt, Seed: 1,
	})
	ticks := int(320 * dram.Microsecond / tm.TCK)
	b.runWithDemand(ticks, 0, 0)
	if err := b.v.Err(); err != nil {
		t.Fatalf("timing violation: %v", err)
	}
	if stale := b.a.StaleAt(b.c.Now(), 3); len(stale) != 0 {
		t.Errorf("stale rows with idle HiRA refresh: %v", stale)
	}
	// With staggered periodic generation and no preventive traffic, at
	// most one refresh is pending per bank at a time, so the deadline
	// path performs them standalone (refresh-refresh pairing needs two
	// pending refreshes in one bank, which PARA traffic provides; see
	// TestPARAHiRAParallelizesPreventives).
	if b.c.Stats.StandaloneRefreshes == 0 {
		t.Error("no standalone deadline refreshes while idle")
	}
}

func TestSlackIncreasesParallelization(t *testing.T) {
	org := smallOrg()
	tm := shortTiming()
	run := func(slack dram.Time) (piggy, standalone uint64) {
		spt := NewSyntheticSPT(org.SubarraysPerBank, 0.32, 7)
		b := newBench(t, org, tm, Config{
			Periodic: PeriodicHiRA, RefSlack: slack, SPT: spt, Seed: 1,
		})
		b.runWithDemand(600000, 30, org.RowsPerBank())
		if err := b.v.Err(); err != nil {
			t.Fatalf("timing violation at slack %v: %v", slack, err)
		}
		return b.c.Stats.HiRAPiggybacks, b.c.Stats.StandaloneRefreshes
	}
	p0, _ := run(0)
	p8, _ := run(8 * tm.TRC)
	if p8 <= p0 {
		t.Errorf("piggybacks with 8tRC slack (%d) not above slack 0 (%d)", p8, p0)
	}
}

func TestPARAImmediateGeneratesPreventives(t *testing.T) {
	org := smallOrg()
	tm := shortTiming()
	b := newBench(t, org, tm, Config{
		Preventive: PreventiveImmediate, Pth: 0.5, Seed: 3,
	})
	b.runWithDemand(300000, 30, org.RowsPerBank())
	if err := b.v.Err(); err != nil {
		t.Fatalf("timing violation: %v", err)
	}
	if b.m.GeneratedPreventive == 0 {
		t.Fatal("PARA generated no preventive refreshes")
	}
	acts := b.c.Stats.ACTs
	prevs := b.c.Stats.StandaloneRefreshes
	// Immediate mode performs all preventives standalone.
	if prevs == 0 {
		t.Fatal("no standalone preventive refreshes performed")
	}
	// Roughly pth of demand activations trigger a preventive refresh.
	demand := acts - prevs
	ratio := float64(prevs) / float64(demand)
	if math.Abs(ratio-0.5) > 0.15 {
		t.Errorf("preventive/demand ratio = %.3f, want ~0.5 (pth)", ratio)
	}
}

func TestPARAHiRAParallelizesPreventives(t *testing.T) {
	org := smallOrg()
	tm := shortTiming()
	spt := NewSyntheticSPT(org.SubarraysPerBank, 0.32, 7)
	b := newBench(t, org, tm, Config{
		Preventive: PreventiveHiRA, Pth: 0.5, RefSlack: 4 * tm.TRC, SPT: spt, Seed: 3,
	})
	b.runWithDemand(300000, 30, org.RowsPerBank())
	if err := b.v.Err(); err != nil {
		t.Fatalf("timing violation: %v", err)
	}
	if b.m.GeneratedPreventive == 0 {
		t.Fatal("PARA generated no preventive refreshes")
	}
	hidden := b.c.Stats.HiRAPiggybacks + b.c.Stats.HiRAPairs
	if hidden == 0 {
		t.Error("no preventive refresh was parallelized")
	}
}

func TestPreventiveNeverDropped(t *testing.T) {
	// Every generated preventive refresh must eventually be performed:
	// sum of performed kinds (piggyback + 2x pairs + standalone) must
	// cover generated preventives once queues drain.
	org := smallOrg()
	tm := shortTiming()
	spt := NewSyntheticSPT(org.SubarraysPerBank, 0.32, 7)
	b := newBench(t, org, tm, Config{
		Preventive: PreventiveHiRA, Pth: 0.8, RefSlack: 2 * tm.TRC, SPT: spt, Seed: 3,
	})
	b.runWithDemand(200000, 25, org.RowsPerBank())
	// Drain with no further demand.
	for i := 0; i < 50000; i++ {
		b.c.Tick()
	}
	if err := b.v.Err(); err != nil {
		t.Fatalf("timing violation: %v", err)
	}
	if n := b.m.PendingRefreshes(); n != 0 {
		t.Errorf("%d refreshes still pending after drain", n)
	}
	performed := b.c.Stats.HiRAPiggybacks + 2*b.c.Stats.HiRAPairs + b.c.Stats.StandaloneRefreshes
	if performed < b.m.GeneratedPreventive {
		t.Errorf("performed %d refresh ops < generated %d preventives",
			performed, b.m.GeneratedPreventive)
	}
}

// TestPreventiveOverflowExpeditesOldest pins the structure-full
// semantics of NoteActivate: once the per-bank PR-FIFO holds PRFIFOCap
// entries, the next sampled activation (a) counts an Expedited overflow,
// (b) pulls the OLDEST queued preventive entry's deadline to now —
// not the new entry's — and (c) still admits the new entry at its own
// deadline (nothing is dropped; the cap overshoots transiently).
func TestPreventiveOverflowExpeditesOldest(t *testing.T) {
	org := smallOrg()
	tm := shortTiming()
	spt := NewSyntheticSPT(org.SubarraysPerBank, 0.32, 7)
	slack := 4 * tm.TRC
	m, err := New(Config{
		Org: org, Timing: tm,
		Preventive: PreventiveHiRA, Pth: 1, RefSlack: slack, SPT: spt, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	loc := dram.Location{Row: 50, Col: 0}
	b := m.bank(0, 0, 0)
	// Pth = 1 samples every activation, so each call queues one entry.
	// Space the calls in time so deadlines are strictly increasing and
	// the oldest entry is unambiguous.
	for i := 0; i < PRFIFOCap; i++ {
		m.NoteActivate(loc, true, dram.Time(i)*tm.TCK)
	}
	if m.Expedited != 0 || b.prDepth != PRFIFOCap {
		t.Fatalf("after %d activations: expedited=%d prDepth=%d", PRFIFOCap, m.Expedited, b.prDepth)
	}
	firstDeadline := b.queue[0].deadline
	if firstDeadline != slack {
		t.Fatalf("oldest deadline %v, want %v", firstDeadline, slack)
	}
	now := dram.Time(PRFIFOCap) * tm.TCK
	m.NoteActivate(loc, true, now)
	if m.Expedited != 1 {
		t.Fatalf("expedited = %d, want 1", m.Expedited)
	}
	if got := b.queue[0].deadline; got != now {
		t.Errorf("oldest entry's deadline %v, want expedited to now %v", got, now)
	}
	if got := b.queue[len(b.queue)-1].deadline; got != now+slack {
		t.Errorf("new entry's deadline %v, want its own %v", got, now+slack)
	}
	if len(b.queue) != PRFIFOCap+1 || b.prDepth != PRFIFOCap+1 {
		t.Errorf("queue=%d prDepth=%d, want transient overshoot to %d", len(b.queue), b.prDepth, PRFIFOCap+1)
	}
	if b.minDeadline != now {
		t.Errorf("minDeadline %v not pulled to now %v", b.minDeadline, now)
	}
	// The expedited entry arms on the next Mandatory scan and drains.
	ops := m.Mandatory(0, now)
	if len(ops) == 0 {
		t.Fatal("expedited entry did not become mandatory")
	}
}

func TestPeriodicREFModeDelegates(t *testing.T) {
	org := smallOrg()
	tm := shortTiming()
	b := newBench(t, org, tm, Config{Periodic: PeriodicREF})
	ticks := int(10 * tm.TREFI / tm.TCK)
	b.runWithDemand(ticks, 100, org.RowsPerBank())
	if err := b.v.Err(); err != nil {
		t.Fatalf("timing violation: %v", err)
	}
	if b.c.Stats.REFs < 8 {
		t.Errorf("REFs = %d over 10 tREFI", b.c.Stats.REFs)
	}
}

func TestHiRAMCDeterminism(t *testing.T) {
	org := smallOrg()
	tm := shortTiming()
	run := func() sched.Stats {
		spt := NewSyntheticSPT(org.SubarraysPerBank, 0.32, 7)
		b := newBench(t, org, tm, Config{
			Periodic: PeriodicHiRA, Preventive: PreventiveHiRA,
			Pth: 0.3, RefSlack: 2 * tm.TRC, SPT: spt, Seed: 11,
		})
		b.runWithDemand(150000, 30, org.RowsPerBank())
		return b.c.Stats
	}
	if run() != run() {
		t.Error("HiRA-MC simulation not deterministic")
	}
}
