package cpu

import (
	"fmt"

	"hira/internal/snap"
	"hira/internal/workload"
)

// Snapshot appends the core's full mutable state — issue position,
// pending access, outstanding loads, retirement and stall accounting,
// and the workload stream's position — to w. It returns an error only
// when the stream cannot save its position (a custom workload.Stream
// without StreamState support).
func (c *Core) Snapshot(w *snap.Writer) error {
	ss, ok := c.gen.(workload.StreamState)
	if !ok {
		return fmt.Errorf("cpu: core %d stream %T is not checkpointable", c.ID, c.gen)
	}
	w.U64(c.issued)
	w.Int(c.gapLeft)
	w.Bool(c.hasPending)
	if c.hasPending {
		w.U64(c.pending.Addr)
		w.Bool(c.pending.Write)
		w.Int(c.pending.Gap)
	}
	w.U64(c.token)
	w.Len(len(c.outstanding) - c.outHead)
	for _, o := range c.outstanding[c.outHead:] {
		w.U64(o.pos)
		w.U64(o.token)
		w.Bool(o.done)
	}
	w.U64(c.Retired)
	w.U64(c.LoadsIssued)
	w.U64(c.StoresIssued)
	w.F64(c.StallCycles)
	ss.SnapshotState(w)
	return nil
}

// Restore reads state written by Snapshot into a freshly constructed
// core running the same workload stream. Structural invariants (window
// occupancy, in-order load positions) are validated so a corrupt
// checkpoint is an error, never a core that panics or spins later.
func (c *Core) Restore(r *snap.Reader) error {
	ss, ok := c.gen.(workload.StreamState)
	if !ok {
		return fmt.Errorf("cpu: core %d stream %T is not checkpointable", c.ID, c.gen)
	}
	c.issued = r.U64()
	c.gapLeft = r.Int()
	if c.gapLeft < 0 {
		r.Failf("negative gap %d", c.gapLeft)
	}
	c.hasPending = r.Bool()
	c.pending = workload.Access{}
	if c.hasPending {
		c.pending = workload.Access{Addr: r.U64(), Write: r.Bool(), Gap: r.Int()}
	}
	c.token = r.U64()
	n := r.Len(c.Window, 3)
	c.outstanding = c.outstanding[:0]
	c.outHead = 0
	prev := uint64(0)
	for i := 0; i < n; i++ {
		o := outstandingLoad{pos: r.U64(), token: r.U64(), done: r.Bool()}
		if r.Err() != nil {
			return r.Err()
		}
		if o.pos > c.issued || (i > 0 && o.pos < prev) {
			r.Failf("outstanding load %d position %d out of order (issued %d)", i, o.pos, c.issued)
			return r.Err()
		}
		prev = o.pos
		c.outstanding = append(c.outstanding, o)
	}
	c.Retired = r.U64()
	c.LoadsIssued = r.U64()
	c.StoresIssued = r.U64()
	c.StallCycles = r.F64()
	if err := ss.RestoreState(r); err != nil {
		return err
	}
	return r.Err()
}
