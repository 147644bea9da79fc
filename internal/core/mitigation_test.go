package core

import (
	"bytes"
	"reflect"
	"testing"

	"hira/internal/dram"
	"hira/internal/dram/dramtest"
	"hira/internal/sched"
	"hira/internal/snap"
)

func grapheneUnderTest(t *testing.T, nrh, counters int) *Graphene {
	t.Helper()
	g, err := NewGraphene(GrapheneConfig{
		Org: smallOrg(), Timing: shortTiming(), NRH: nrh, Counters: counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func actLoc(row int) dram.Location {
	return dram.Location{BankID: dram.BankID{Channel: 0, Rank: 0, Bank: 0}, Row: row}
}

func TestGrapheneTripsAtThreshold(t *testing.T) {
	g := grapheneUnderTest(t, 64, 8) // trip threshold 16
	for i := 0; i < 15; i++ {
		g.NoteActivate(actLoc(50), true, 0)
	}
	if got := g.Stats().Triggers; got != 0 {
		t.Fatalf("tripped after 15 activations: %d triggers", got)
	}
	g.NoteActivate(actLoc(50), true, 0)
	if got := g.Stats().Triggers; got != 1 {
		t.Fatalf("Triggers = %d after 16th activation, want 1", got)
	}
	if got := g.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2 (both neighbors of row 50)", got)
	}
	ops := g.Mandatory(0, 0)
	// BaselineREF owes no REF at t=0, so the two victims lead.
	if len(ops) != 2 {
		t.Fatalf("Mandatory returned %d ops, want 2: %+v", len(ops), ops)
	}
	wantRows := map[int]bool{49: true, 51: true}
	for _, op := range ops {
		if op.Kind != sched.OpRowRefreshBlocking || !op.PreventiveA {
			t.Fatalf("op %+v is not a preventive blocking row refresh", op)
		}
		if !wantRows[op.RowA] {
			t.Fatalf("op refreshes row %d, want a neighbor of 50", op.RowA)
		}
		delete(wantRows, op.RowA)
	}
	// The controller reports each refresh back; the queue drains.
	for _, row := range []int{49, 51} {
		g.NoteRefreshed(sched.Op{Kind: sched.OpRowRefreshBlocking, Rank: 0, Bank: 0, RowA: row}, 0, 0)
	}
	if got := g.Pending(); got != 0 {
		t.Fatalf("Pending = %d after both refreshes reported, want 0", got)
	}
	if got := g.Stats().VictimRefreshes; got != 2 {
		t.Fatalf("VictimRefreshes = %d, want 2", got)
	}
	// Refresh activations must not advance the tracker.
	for i := 0; i < 100; i++ {
		g.NoteActivate(actLoc(50), false, 0)
	}
	if got := g.Stats().Triggers; got != 1 {
		t.Fatalf("refresh activations advanced the tracker: %d triggers", got)
	}
}

func TestGrapheneCounterTableEvictionAndReset(t *testing.T) {
	g := grapheneUnderTest(t, 64, 2) // 2 counters: many-sided overflow territory
	// Fill the table with rows 10 and 20, then touch distinct rows: row 30
	// finds no floor-resting entry and raises the spillover floor; rows 40
	// and 50 then replace the entries the raised floor exposed.
	for _, row := range []int{10, 20, 30, 40, 50} {
		g.NoteActivate(actLoc(row), true, 0)
	}
	b := &g.banks[0]
	if b.n != 2 || b.spill != 1 {
		t.Fatalf("table n=%d spill=%d, want 2 tracked rows over floor 1", b.n, b.spill)
	}
	if b.rows[0] != 40 || b.rows[1] != 50 || b.cnts[0] != 2 || b.cnts[1] != 2 {
		t.Fatalf("table holds rows %v counts %v, want [40 50] at [2 2]", b.rows, b.cnts)
	}
	// The tREFW boundary clears the window.
	g.Tick(shortTiming().TREFW)
	if b.n != 0 || b.spill != 0 {
		t.Fatalf("table not reset at tREFW: n=%d spill=%d", b.n, b.spill)
	}
	if got := g.Stats().TableResets; got != 1 {
		t.Fatalf("TableResets = %d, want 1", got)
	}
}

func TestRFMBudgetAndLatch(t *testing.T) {
	f, err := NewRFM(RFMConfig{Org: smallOrg(), Timing: shortTiming(), RAAIMT: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Row 60 dominates the window, so the majority latch holds it when
	// the RAA budget runs out.
	for i := 0; i < 5; i++ {
		f.NoteActivate(actLoc(60), true, 0)
	}
	for _, row := range []int{70, 80, 90} {
		f.NoteActivate(actLoc(row), true, 0)
	}
	if got := f.Stats().Triggers; got != 1 {
		t.Fatalf("Triggers = %d after RAAIMT activations, want 1", got)
	}
	rows := map[int]bool{}
	for _, op := range f.Mandatory(0, 0) {
		if op.Kind == sched.OpRowRefreshBlocking {
			rows[op.RowA] = true
		}
	}
	if !rows[59] || !rows[61] {
		t.Fatalf("RFM queued rows %v, want neighbors of the dominant row 60", rows)
	}
	// The window reset: another RAAIMT-1 activations must not re-trip.
	for i := 0; i < 7; i++ {
		f.NoteActivate(actLoc(60), true, 0)
	}
	if got := f.Stats().Triggers; got != 1 {
		t.Fatalf("re-tripped before the fresh budget ran out: %d", got)
	}
}

func TestMitigationVictimRingOverflow(t *testing.T) {
	g := grapheneUnderTest(t, 64, 8)
	ring := &g.rings[0]
	for i := 0; i < victimRingCap; i++ {
		if !ring.push(victimRef{row: i}) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	g.enqueueVictims(actLoc(50), g.rpb)
	if got := g.Stats().DroppedVictims; got != 2 {
		t.Fatalf("DroppedVictims = %d, want 2", got)
	}
	if ring.n != victimRingCap {
		t.Fatalf("ring grew past capacity: %d", ring.n)
	}
	// FIFO removal from the middle preserves order.
	if !ring.remove(victimRef{row: 3}) {
		t.Fatal("remove of a present entry failed")
	}
	if ring.at(0) != (victimRef{row: 0}) || ring.at(3) != (victimRef{row: 4}) {
		t.Fatalf("ring order broken after middle removal: %+v %+v", ring.at(0), ring.at(3))
	}
	if ring.remove(victimRef{row: 3}) {
		t.Fatal("removed an absent entry")
	}
}

// TestZooEnginesScheduleSafely runs each zoo engine under the real
// controller with the timing verifier and refresh auditor attached: the
// victim refreshes must respect every DRAM timing constraint and the
// conventional REF schedule must keep retention intact.
func TestZooEnginesScheduleSafely(t *testing.T) {
	org := smallOrg()
	tm := shortTiming()
	for _, tc := range []struct {
		name string
		mk   func() sched.RefreshEngine
	}{
		{"graphene", func() sched.RefreshEngine {
			g, err := NewGraphene(GrapheneConfig{Org: org, Timing: tm, NRH: 32, Counters: 8})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"rfm", func() sched.RefreshEngine {
			f, err := NewRFM(RFMConfig{Org: org, Timing: tm, RAAIMT: 16})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := sched.NewController(sched.Config{Org: org, Timing: tm}, tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			v := dramtest.NewVerifier(org, tm)
			a := dramtest.NewRefreshAuditor(org, tm)
			c.CommandHook = func(cmd dram.Command) {
				v.Check(cmd)
				a.Observe(cmd)
			}
			// Hammer two rows hard enough to trip both trackers, with some
			// background traffic over other banks.
			rng := uint64(0xABCDE)
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			var tok uint64
			for tick := 0; tick < 400000; tick++ {
				if tick%50 == 0 {
					tok++
					row := 50
					if tok%2 == 0 {
						row = 52
					}
					c.Enqueue(sched.Request{Loc: actLoc(row), Token: tok})
				}
				if tick%177 == 0 {
					tok++
					c.Enqueue(sched.Request{Loc: dram.Location{
						BankID: dram.BankID{Bank: int(next() % uint64(org.BanksPerRank()))},
						Row:    int(next() % uint64(org.RowsPerBank())),
					}, Token: tok})
				}
				c.Tick()
			}
			// Blocking victim refreshes surface as standalone refreshes in
			// the controller's counters.
			if c.Stats.StandaloneRefreshes == 0 {
				t.Error("no victim refreshes issued despite sustained hammering")
			}
			if c.Stats.REFs == 0 {
				t.Error("conventional REF schedule stalled under the zoo engine")
			}
			if err := v.Err(); err != nil {
				t.Errorf("timing violated: %v", err)
			}
			if stale := a.StaleAt(c.Now(), 3); len(stale) != 0 {
				t.Errorf("retention violated: %v", stale)
			}
		})
	}
}

// TestZooSnapshotRoundTrip: a zoo engine's tracker tables, tallies and
// pending victims restore into a fresh engine that re-encodes to the
// same bytes and schedules the same victim refreshes; a corrupt RAA
// counter (at or past RAAIMT, which a live counter never reaches) is a
// decode error.
func TestZooSnapshotRoundTrip(t *testing.T) {
	type zoo interface {
		sched.RefreshEngine
		Snapshot(*snap.Writer)
		Restore(*snap.Reader, dram.Time) error
	}
	newRFM := func() *RFM {
		f, err := NewRFM(RFMConfig{Org: smallOrg(), Timing: shortTiming(), RAAIMT: 8})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	rfm := newRFM()
	for _, pair := range [][2]zoo{
		{grapheneUnderTest(t, 64, 8), grapheneUnderTest(t, 64, 8)},
		{rfm, newRFM()},
	} {
		live, restored := pair[0], pair[1]
		for i := 0; i < 40; i++ {
			live.NoteActivate(actLoc(50), true, 0)
		}
		w := snap.NewWriter()
		live.Snapshot(w)
		if err := restored.Restore(snap.NewReader(w.Bytes()), 0); err != nil {
			t.Fatalf("%T: %v", live, err)
		}
		again := snap.NewWriter()
		restored.Snapshot(again)
		if !bytes.Equal(again.Bytes(), w.Bytes()) {
			t.Fatalf("%T: restored engine re-encodes differently", live)
		}
		want := append([]sched.Op(nil), live.Mandatory(0, 0)...)
		if got := restored.Mandatory(0, 0); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%T: restored engine offers %v, original %v", live, got, want)
		}
	}

	// RFM's state ends with the last bank's (raa, latched, latch,
	// latchN); that bank was never activated, so all four are one zero
	// byte each. Setting its raa to RAAIMT is corrupt.
	w := snap.NewWriter()
	rfm.Snapshot(w)
	data := w.Bytes()
	if tail := data[len(data)-4:]; !bytes.Equal(tail, []byte{0, 0, 0, 0}) {
		t.Fatalf("unexpected last-bank encoding %v", tail)
	}
	data[len(data)-4] = 8
	if err := newRFM().Restore(snap.NewReader(data), 0); err == nil {
		t.Fatal("RAA counter at RAAIMT restored")
	}
}
