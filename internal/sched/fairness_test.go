package sched

import (
	"testing"

	"hira/internal/dram"
)

// TestFCFSArrivalOrderAcrossBanks is the regression guard for the
// per-bank bucket refactor: FR-FCFS pass 2 must activate closed banks in
// request arrival order, not bank index order. Requests are enqueued to
// banks in an order deliberately inverse to their indices; tRRD spacing
// forces one ACT at a time, so the ACT command order exposes the walk
// order.
func TestFCFSArrivalOrderAcrossBanks(t *testing.T) {
	org := smallOrg()
	tm := dram.DDR4_2400(8)
	h := newHarness(t, org, tm, NoRefresh{})
	var acts []int
	h.c.CommandHook = func(cmd dram.Command) {
		if cmd.Kind == dram.KindACT {
			acts = append(acts, cmd.Loc.Bank)
		}
	}
	// Arrival order: banks 7, 3, 12, 1, 9 — neither ascending nor
	// descending.
	order := []int{7, 3, 12, 1, 9}
	for _, b := range order {
		h.read(t, dram.Location{BankID: dram.BankID{Bank: b}, Row: b + 1})
	}
	h.run(400)
	if len(acts) != len(order) {
		t.Fatalf("got %d ACTs, want %d", len(acts), len(order))
	}
	for i, b := range order {
		if acts[i] != b {
			t.Fatalf("ACT order = %v, want arrival order %v", acts, order)
		}
	}
}

// TestFCFSOrderInterleavedSameBank checks the merge across banks when one
// bank holds several queued requests: an older request of bank A must not
// be overtaken by a younger request of bank B, and vice versa.
func TestFCFSOrderInterleavedSameBank(t *testing.T) {
	org := smallOrg()
	tm := dram.DDR4_2400(8)
	h := newHarness(t, org, tm, NoRefresh{})
	var acts []dram.Location
	h.c.CommandHook = func(cmd dram.Command) {
		if cmd.Kind == dram.KindACT {
			acts = append(acts, cmd.Loc)
		}
	}
	// A1, B1, A2 (same bank as A1, different row), B2. A2 conflicts with
	// A1 and must wait for A1's row cycle; B-bank requests interleave by
	// arrival.
	h.read(t, dram.Location{BankID: dram.BankID{Bank: 2}, Row: 10}) // A1
	h.read(t, dram.Location{BankID: dram.BankID{Bank: 5}, Row: 20}) // B1
	h.read(t, dram.Location{BankID: dram.BankID{Bank: 2}, Row: 11}) // A2
	h.run(1000)
	if len(acts) != 3 {
		t.Fatalf("got %d ACTs, want 3: %v", len(acts), acts)
	}
	want := []dram.Location{
		{BankID: dram.BankID{Bank: 2}, Row: 10},
		{BankID: dram.BankID{Bank: 5}, Row: 20},
		{BankID: dram.BankID{Bank: 2}, Row: 11},
	}
	for i := range want {
		if acts[i].Bank != want[i].Bank || acts[i].Row != want[i].Row {
			t.Fatalf("ACT %d = %v, want %v", i, acts[i], want[i])
		}
	}
}

// TestWriteDrainHysteresis covers the previously untested write-drain
// edge: conflicting reads arrive while the write queue is full of row
// hits. The per-queue hit veto must let the reads precharge the row once
// the drain falls below writeLow, instead of deadlocking behind write
// hits that keep the row open.
func TestWriteDrainHysteresis(t *testing.T) {
	org := smallOrg()
	tm := dram.DDR4_2400(8)
	c, err := NewController(Config{Org: org, Timing: tm}, NoRefresh{})
	if err != nil {
		t.Fatal(err)
	}
	completed := map[uint64]dram.Time{}
	c.OnComplete = func(core int, token uint64, at dram.Time) { completed[token] = at }

	// Fill the write queue to capacity with row hits on bank 0 row 1:
	// writeHigh (48) is crossed, so draining starts.
	for i := 0; i < writeQueueCap; i++ {
		if !c.Enqueue(Request{Loc: dram.Location{Row: 1, Col: i}, Write: true, Token: uint64(100 + i)}) {
			t.Fatalf("write %d rejected below capacity", i)
		}
	}
	// Conflicting reads on the same bank, different row.
	for i := 0; i < 4; i++ {
		if !c.Enqueue(Request{Loc: dram.Location{Row: 2, Col: i}, Token: uint64(i + 1)}) {
			t.Fatalf("read %d rejected", i)
		}
	}
	if c.Stats.Writes != writeQueueCap {
		t.Fatalf("Writes = %d", c.Stats.Writes)
	}
	drainStarted := false
	for i := 0; i < 20000; i++ {
		c.Tick()
		_, w := c.QueueOccupancy()
		if w < writeQueueCap {
			drainStarted = true
		}
		if len(completed) == 4 {
			break
		}
	}
	if !drainStarted {
		t.Fatal("write drain never started despite a full write queue")
	}
	for i := 1; i <= 4; i++ {
		if _, ok := completed[uint64(i)]; !ok {
			t.Fatalf("read %d deadlocked behind the write drain (completed: %v)", i, completed)
		}
	}
	// Hysteresis: the drain must stop at writeLow (16), not empty the
	// queue while reads are waiting; remaining writes drain only after
	// reads are served or the high watermark is crossed again.
	if r, w := c.QueueOccupancy(); r != 0 || w > writeQueueCap {
		t.Fatalf("unexpected occupancy after drain: reads=%d writes=%d", r, w)
	}
}

// TestBufferedWritebackRetry drives a controller through a full
// write-queue episode and asserts rejected writes are eventually accepted
// in FIFO order once the queue drains (the retry contract System's
// writeback ring relies on).
func TestBufferedWritebackRetry(t *testing.T) {
	org := smallOrg()
	tm := dram.DDR4_2400(8)
	c, err := NewController(Config{Org: org, Timing: tm}, NoRefresh{})
	if err != nil {
		t.Fatal(err)
	}
	var pending []Request
	tok := uint64(0)
	submit := func(row int) {
		tok++
		r := Request{Loc: dram.Location{Row: row}, Write: true, Token: tok}
		if !c.Enqueue(r) {
			pending = append(pending, r)
		}
	}
	for i := 0; i < 3*writeQueueCap; i++ {
		submit(i % 4)
	}
	if len(pending) == 0 {
		t.Fatal("write queue never filled; the retry path is untested")
	}
	for i := 0; i < 50000 && (len(pending) > 0 || queueWrites(c) > 0); i++ {
		// Retry the buffered writes each tick, oldest first, exactly as
		// sim.System does.
		for len(pending) > 0 {
			if !c.Enqueue(pending[0]) {
				break
			}
			pending = pending[1:]
		}
		c.Tick()
	}
	if len(pending) != 0 {
		t.Fatalf("%d buffered writes never accepted", len(pending))
	}
	if got := c.Stats.Writes; got != 3*writeQueueCap {
		t.Fatalf("Writes = %d, want %d", got, 3*writeQueueCap)
	}
}

func queueWrites(c *Controller) int {
	_, w := c.QueueOccupancy()
	return w
}
