package sched

import (
	"testing"

	"hira/internal/dram"
	"hira/internal/dram/dramtest"
)

// smallOrg returns a small organization for fast exhaustive tests.
func smallOrg() dram.Org {
	o := dram.DefaultOrg()
	o.SubarraysPerBank = 8
	o.RowsPerSubarray = 16 // 128 rows per bank
	return o
}

// harness wires a controller to a verifier and auditor.
type harness struct {
	c   *Controller
	v   *dramtest.Verifier
	a   *dramtest.RefreshAuditor
	org dram.Org
	t   dram.Timing

	completed map[uint64]dram.Time
	token     uint64
}

func newHarness(t *testing.T, org dram.Org, tm dram.Timing, engine RefreshEngine) *harness {
	t.Helper()
	c, err := NewController(Config{Org: org, Timing: tm}, engine)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{c: c, org: org, t: tm, completed: map[uint64]dram.Time{}}
	h.v = dramtest.NewVerifier(org, tm)
	// The controller quantizes t1/t2 up to the next command clock.
	h.v.MaxT1 = tm.T1 + tm.TCK
	h.v.MaxT2 = tm.T2 + tm.TCK
	h.a = dramtest.NewRefreshAuditor(org, tm)
	c.CommandHook = func(cmd dram.Command) {
		h.v.Check(cmd)
		h.a.Observe(cmd)
	}
	c.OnComplete = func(core int, token uint64, at dram.Time) {
		h.completed[token] = at
	}
	return h
}

func (h *harness) read(t *testing.T, loc dram.Location) uint64 {
	t.Helper()
	h.token++
	if !h.c.Enqueue(Request{Loc: loc, Core: 0, Token: h.token}) {
		t.Fatal("enqueue failed")
	}
	return h.token
}

func (h *harness) run(ticks int) {
	for i := 0; i < ticks; i++ {
		h.c.Tick()
	}
}

func (h *harness) checkClean(t *testing.T) {
	t.Helper()
	if err := h.v.Err(); err != nil {
		t.Fatalf("timing violation: %v (total %d)", err, len(h.v.Violations()))
	}
}

func TestSingleReadLatency(t *testing.T) {
	org := smallOrg()
	tm := dram.DDR4_2400(8)
	h := newHarness(t, org, tm, NoRefresh{})
	tok := h.read(t, dram.Location{Row: 5, Col: 0})
	h.run(100)
	h.checkClean(t)
	at, ok := h.completed[tok]
	if !ok {
		t.Fatal("read never completed")
	}
	// Cold read: ACT + tRCD + CL + tBL, plus up to a tick of slack.
	want := tm.TRCD + tm.CL + tm.TBL
	if at < want || at > want+3*tm.TCK {
		t.Errorf("read completed at %v, want ~%v", at, want)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	org := smallOrg()
	tm := dram.DDR4_2400(8)

	// Two reads to the same row: second is a row hit.
	h1 := newHarness(t, org, tm, NoRefresh{})
	h1.read(t, dram.Location{Row: 5, Col: 0})
	t2 := h1.read(t, dram.Location{Row: 5, Col: 8})
	h1.run(200)
	h1.checkClean(t)
	hitAt := h1.completed[t2]
	if h1.c.Stats.RowHits == 0 {
		t.Error("no row hits recorded")
	}

	// Two reads to different rows in the same bank: second conflicts.
	h2 := newHarness(t, org, tm, NoRefresh{})
	h2.read(t, dram.Location{Row: 5, Col: 0})
	c2 := h2.read(t, dram.Location{Row: 9, Col: 0})
	h2.run(400)
	h2.checkClean(t)
	confAt := h2.completed[c2]
	if hitAt == 0 || confAt == 0 {
		t.Fatal("requests not completed")
	}
	if hitAt >= confAt {
		t.Errorf("row hit (%v) not faster than conflict (%v)", hitAt, confAt)
	}
}

func TestWritesDrainAndComplete(t *testing.T) {
	org := smallOrg()
	tm := dram.DDR4_2400(8)
	h := newHarness(t, org, tm, NoRefresh{})
	for i := 0; i < 10; i++ {
		h.token++
		if !h.c.Enqueue(Request{Loc: dram.Location{Row: i, Col: 0}, Write: true, Token: h.token}) {
			t.Fatal("write enqueue failed")
		}
	}
	h.run(3000)
	h.checkClean(t)
	if _, w := h.c.QueueOccupancy(); w != 0 {
		t.Errorf("%d writes still queued", w)
	}
	if h.c.Stats.Writes != 10 {
		t.Errorf("Writes = %d", h.c.Stats.Writes)
	}
}

func TestQueueCapacity(t *testing.T) {
	org := smallOrg()
	tm := dram.DDR4_2400(8)
	c, err := NewController(Config{Org: org, Timing: tm, ReadQueueCap: 4}, NoRefresh{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !c.Enqueue(Request{Loc: dram.Location{Row: i}, Token: uint64(i)}) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	if c.Enqueue(Request{Loc: dram.Location{Row: 99}, Token: 99}) {
		t.Error("enqueue accepted past capacity")
	}
}

func TestManyRandomReadsNoViolations(t *testing.T) {
	org := smallOrg()
	org.Channels = 2
	org.RanksPerChannel = 2
	tm := dram.DDR4_2400(8)
	h := newHarness(t, org, tm, NoRefresh{})
	rng := uint64(12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	issued := 0
	for tick := 0; tick < 40000; tick++ {
		if tick%7 == 0 {
			loc := dram.Location{
				BankID: dram.BankID{
					Channel: int(next() % 2),
					Rank:    int(next() % 2),
					Bank:    int(next() % uint64(org.BanksPerRank())),
				},
				Row: int(next() % uint64(org.RowsPerBank())),
				Col: int(next() % 64),
			}
			h.token++
			if h.c.Enqueue(Request{Loc: loc, Write: next()%4 == 0, Core: 0, Token: h.token}) {
				issued++
			}
		}
		h.c.Tick()
	}
	h.run(40000)
	h.checkClean(t)
	if issued < 1000 {
		t.Fatalf("only %d requests issued", issued)
	}
	if r, w := h.c.QueueOccupancy(); r != 0 || w != 0 {
		t.Errorf("queues not drained: %d reads, %d writes", r, w)
	}
}

func TestBaselineREFIssuesOnSchedule(t *testing.T) {
	org := smallOrg()
	tm := dram.DDR4_2400(8)
	h := newHarness(t, org, tm, NewBaselineREF(org, tm))
	// Simulate ~10 tREFI with a background of reads.
	ticks := int(10 * tm.TREFI / tm.TCK)
	for i := 0; i < ticks; i++ {
		if i%200 == 0 {
			h.read(t, dram.Location{Row: i % org.RowsPerBank(), Col: 0})
		}
		h.c.Tick()
	}
	h.checkClean(t)
	refs := int(h.c.Stats.REFs)
	if refs < 8 || refs > 11 {
		t.Errorf("REFs = %d over 10 tREFI, want ~10", refs)
	}
}

func TestBaselineREFBlocksRankDuringTRFC(t *testing.T) {
	org := smallOrg()
	tm := dram.DDR4_2400(8)
	h := newHarness(t, org, tm, NewBaselineREF(org, tm))
	// Run just past the first REF, then enqueue a read; its completion
	// must wait for tRFC to elapse.
	preTicks := int(tm.TREFI/tm.TCK) + 2
	h.run(preTicks)
	if h.c.Stats.REFs != 1 {
		t.Fatalf("REFs = %d, want 1", h.c.Stats.REFs)
	}
	tok := h.read(t, dram.Location{Row: 3})
	h.run(int(tm.TRFC/tm.TCK) + 100)
	h.checkClean(t)
	at := h.completed[tok]
	refDone := tm.TREFI + tm.TRFC
	if at < refDone {
		t.Errorf("read completed at %v, before refresh finished at ~%v", at, refDone)
	}
}

func TestRefreshAuditorCleanWithBaselineREF(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-millisecond simulation")
	}
	org := smallOrg() // 128 rows/bank
	tm := dram.DDR4_2400(8)
	// Shrink the retention window so a full refresh sweep fits in a
	// short simulation: 128 rows need 128/rowsPerREF REFs.
	tm.TREFW = 2 * dram.Millisecond // rowsPerREF = 1 at tREFI 7.8us? 2ms/7.8us = 256 REFs
	h := newHarness(t, org, tm, NewBaselineREF(org, tm))
	ticks := int(2500*dram.Microsecond/tm.TCK) + 1
	for i := 0; i < ticks; i++ {
		if i%500 == 0 {
			h.read(t, dram.Location{Row: (i / 500) % org.RowsPerBank()})
		}
		h.c.Tick()
	}
	h.checkClean(t)
	if stale := h.a.StaleAt(h.c.Now(), 3); len(stale) != 0 {
		t.Errorf("stale rows under baseline REF: %v", stale)
	}
}

func TestTFAWLimitsActivationBursts(t *testing.T) {
	org := smallOrg()
	tm := dram.DDR4_2400(8)
	// Enlarge tFAW so it actually binds, then blast ACTs at distinct
	// banks; the verifier checks the window.
	tm.TFAW = 40 * dram.Nanosecond
	h := newHarness(t, org, tm, NoRefresh{})
	for b := 0; b < 16; b++ {
		h.read(t, dram.Location{BankID: dram.BankID{Bank: b}, Row: b})
	}
	h.run(2000)
	h.checkClean(t)
	if len(h.completed) != 16 {
		t.Errorf("completed %d of 16 reads", len(h.completed))
	}
}

func TestNoRefreshNeverRefreshes(t *testing.T) {
	org := smallOrg()
	tm := dram.DDR4_2400(8)
	h := newHarness(t, org, tm, NoRefresh{})
	h.run(int(3 * tm.TREFI / tm.TCK))
	if h.c.Stats.REFs != 0 {
		t.Errorf("NoRefresh issued %d REFs", h.c.Stats.REFs)
	}
}
