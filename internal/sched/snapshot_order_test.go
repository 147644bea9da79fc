package sched

import (
	"bytes"
	"testing"

	"hira/internal/dram"
	"hira/internal/snap"
)

// TestRestoreRejectsUnorderedQueue: a snapshot lists each queue oldest
// first, Restore rebuilds the per-bank FIFOs in that order, and the
// scheduler merges them on seq. So a queue whose sequence numbers do not
// rise strictly, or reach the arrival counter, is corrupt. The same
// queued requests in order restore.
func TestRestoreRejectsUnorderedQueue(t *testing.T) {
	org := smallOrg()
	tm := dram.DDR4_2400(8)
	for _, tc := range []struct {
		seqs []uint64
		ok   bool
	}{
		{[]uint64{0, 1, 2}, true},
		{[]uint64{0, 2, 1}, false},
		{[]uint64{0, 1, 1}, false},
		{[]uint64{0, 1, 3}, false}, // the arrival counter is 3
	} {
		c, err := NewController(Config{Org: org, Timing: tm}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tc.seqs {
			if !c.Enqueue(Request{Loc: dram.Location{Row: i}, Token: uint64(i)}) {
				t.Fatal("enqueue failed")
			}
		}
		// Every request targets bank 0, so the snapshot writes that
		// bank's FIFO as it stands, whatever its sequence numbers.
		n := c.chans[0].banks[0].bq[qRead].head
		for _, seq := range tc.seqs {
			n.seq = seq
			n = n.bnext
		}
		w := snap.NewWriter()
		c.Snapshot(w)
		back, err := NewController(Config{Org: org, Timing: tm}, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = back.Restore(snap.NewReader(w.Bytes()), 1)
		if (err == nil) != tc.ok {
			t.Errorf("queue sequence numbers %v: restore error %v, want ok=%v", tc.seqs, err, tc.ok)
			continue
		}
		if tc.ok {
			again := snap.NewWriter()
			back.Snapshot(again)
			if !bytes.Equal(again.Bytes(), w.Bytes()) {
				t.Errorf("queue sequence numbers %v: restored controller snapshots differently", tc.seqs)
			}
		}
	}
}
