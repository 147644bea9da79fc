package sched_test

import (
	"bytes"
	"reflect"
	"testing"

	"hira/internal/dram"
	"hira/internal/sched"
	"hira/internal/snap"
)

// newFxController builds a conventional-REF controller with the
// forensics ledger and flight recorder attached.
func newFxController(t *testing.T, org dram.Org, tm dram.Timing) *sched.Controller {
	t.Helper()
	c, err := sched.NewController(sched.Config{Org: org, Timing: tm}, sched.NewBaselineREF(org, tm))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableForensics(sched.ForensicsConfig{Thresholds: []uint32{2, 3}, Recorder: true})
	return c
}

// driveSpread keeps the queues topped up with reads to pseudo-random
// rows spread over thousands of rows per bank, so the ledger's table
// grows well past its initial size, and ticks n times.
func driveSpread(c *sched.Controller, org dram.Org, rng *uint64, n int) {
	next := func() uint64 {
		*rng ^= *rng << 13
		*rng ^= *rng >> 7
		*rng ^= *rng << 17
		return *rng
	}
	for i := 0; i < n; i++ {
		for reads, writes := c.QueueOccupancy(); reads+writes < 32; reads++ {
			if !c.Enqueue(sched.Request{Loc: dram.Location{
				BankID: dram.BankID{Bank: int(next() % uint64(org.BanksPerRank()))},
				Row:    int(next() % 2048),
			}}) {
				break
			}
		}
		c.Tick()
	}
}

// forensicsBytes encodes c's ledger section.
func forensicsBytes(c *sched.Controller, delta bool) []byte {
	w := snap.NewWriter()
	c.SnapshotForensics(w, delta)
	return w.Bytes()
}

// TestForensicsSnapshotDeltaChain proves the ledger codec's chain
// contract: restoring a full snapshot and applying the delta taken one
// interval later reproduces the live ledger exactly — same report, same
// canonical full-snapshot bytes — although the restored table was built
// in a different insertion order. The delta carries only the rows
// changed in its interval.
func TestForensicsSnapshotDeltaChain(t *testing.T) {
	org, tm := dram.DefaultOrg(), dram.DDR4_2400(8)
	src := newFxController(t, org, tm)
	rng := uint64(0xFEED)
	driveSpread(src, org, &rng, 30000)
	full := forensicsBytes(src, false)
	src.ResetForensicsTouched()
	driveSpread(src, org, &rng, 20000)
	delta := forensicsBytes(src, true)
	want := forensicsBytes(src, false)
	if len(delta) >= len(want) {
		t.Fatalf("delta %d bytes is not smaller than the %d-byte full ledger", len(delta), len(want))
	}

	dst := newFxController(t, org, tm)
	for _, step := range []struct {
		data  []byte
		delta bool
	}{{full, false}, {delta, true}} {
		r := snap.NewReader(step.data)
		if err := dst.RestoreForensics(r, step.delta); err != nil {
			t.Fatal(err)
		}
		if r.Done(); r.Err() != nil {
			t.Fatal(r.Err())
		}
	}
	if got := forensicsBytes(dst, false); !bytes.Equal(got, want) {
		t.Fatal("full + delta restored a ledger that encodes differently from the live one")
	}
	wantRep, _ := src.ForensicsReport()
	gotRep, _ := dst.ForensicsReport()
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Fatalf("restored report diverged:\ngot  %+v\nwant %+v", gotRep, wantRep)
	}
	if wantRep.Tally.REFRowsReset == 0 || len(wantRep.Events) == 0 {
		t.Fatalf("the run exercised neither REF coverage nor the recorder: %+v", wantRep.Tally)
	}
}

// TestForensicsSnapshotRejectsCorruptRows: hostile ledger rows are
// decode errors, never a ledger holding rows outside the organization
// or a non-canonical table.
func TestForensicsSnapshotRejectsCorruptRows(t *testing.T) {
	org, tm := smallOrgX(), dram.DDR4_2400(8)
	fresh := forensicsBytes(newFxController(t, org, tm), false)
	if fresh[len(fresh)-1] != 0 {
		t.Fatal("a fresh ledger's snapshot does not end with an empty row list")
	}
	span := uint64(org.TotalBanks() * org.RowsPerBank())
	for _, c := range []struct {
		name string
		rows [][3]uint64 // index gap, count, exposure
	}{
		{"non-increasing", [][3]uint64{{5, 1, 0}, {0, 1, 0}}},
		{"out-of-range", [][3]uint64{{span, 1, 0}}},
		{"untouched-row-in-full", [][3]uint64{{5, 0, 0}}},
		{"count-overflow", [][3]uint64{{5, 1 << 33, 0}}},
	} {
		w := snap.NewWriter()
		w.Raw(fresh[:len(fresh)-1])
		w.Len(len(c.rows))
		for _, row := range c.rows {
			w.U64(row[0])
			w.U64(row[1])
			w.U64(row[2])
		}
		if err := newFxController(t, org, tm).RestoreForensics(snap.NewReader(w.Bytes()), false); err == nil {
			t.Errorf("%s: corrupt ledger rows restored", c.name)
		}
	}
}
