package core

import (
	"math"

	"hira/internal/dram"
	"hira/internal/sched"
	"hira/internal/snap"
)

// Snapshot appends HiRA-MC's full mutable state — the PARA RNG, the
// generation rotation, and every bank's Refresh Table slice, RefPtr
// table, balance counts, periodic phase, armed op (with its forensics
// attribution flags), and piggyback offer — to w. Derived aggregates
// (minDeadline, minRef, prDepth, chNext, chArmed) are recomputed on
// restore from the serialized ground truth.
func (m *HiRAMC) Snapshot(w *snap.Writer) {
	w.U64(m.rng)
	w.Int(m.genPtr)
	w.U64(m.Generated)
	w.U64(m.GeneratedPreventive)
	w.U64(m.Expedited)
	for _, b := range m.banks {
		w.Len(len(b.queue))
		for _, e := range b.queue {
			w.I64(int64(e.deadline))
			w.Bool(e.preventive)
			w.Int(e.row)
		}
		for _, p := range b.refPtr {
			w.Int(p)
		}
		for _, n := range b.refreshed {
			w.Int(n)
		}
		w.I64(int64(b.periodicDue))
		w.Bool(b.armedSet)
		if b.armedSet {
			w.U8(uint8(b.armed.Kind))
			w.Int(b.armed.Rank)
			w.Int(b.armed.Bank)
			w.Int(b.armed.RowA)
			w.Int(b.armed.RowB)
			w.Bool(b.armed.PreventiveA)
			w.Bool(b.armed.PreventiveB)
			w.Int(b.armedCount)
		}
		// The piggyback offer is a pointer into the queue; serialize it as
		// an index, or as a "dangling" marker when the queue's backing
		// array moved underneath it (live behavior: set, matches nothing).
		off := 0
		if b.offered != nil {
			off = -1
			for i := range b.queue {
				if &b.queue[i] == b.offered {
					off = i + 1
					break
				}
			}
		}
		w.Int(off)
		if b.offered != nil {
			w.Int(b.offeredRow)
		}
	}
	w.Bool(m.ref != nil)
	if m.ref != nil {
		m.ref.Snapshot(w)
	}
}

// Restore reads state written by Snapshot into a freshly constructed
// engine of identical configuration, validating every row, pointer, and
// phase against the organization so corrupt checkpoints error instead of
// panicking (or spinning the generation catch-up loop) later.
func (m *HiRAMC) Restore(r *snap.Reader, now dram.Time) error {
	org := m.cfg.Org
	rows := org.RowsPerBank()
	m.rng = r.U64()
	m.genPtr = r.Int()
	if m.genPtr < 0 || m.genPtr >= len(m.banks) {
		r.Failf("generation pointer %d out of range", m.genPtr)
		return r.Err()
	}
	m.Generated = r.U64()
	m.GeneratedPreventive = r.U64()
	m.Expedited = r.U64()
	for i := range m.chNext {
		m.chNext[i] = dram.MaxTime()
		m.chArmed[i] = 0
	}
	for _, b := range m.banks {
		nq := r.Len(RefreshTableCap, 3)
		b.queue = b.queue[:0]
		b.prDepth = 0
		for j := 0; j < nq; j++ {
			e := refEntry{deadline: dram.Time(r.I64()), preventive: r.Bool(), row: r.Int()}
			if r.Err() != nil {
				return r.Err()
			}
			// Periodic entries resolve their row through the RefPtr table
			// (row == -1); preventive entries carry a concrete victim.
			if e.preventive {
				if e.row < 0 || e.row >= rows {
					r.Failf("preventive refresh row %d out of range", e.row)
					return r.Err()
				}
				b.prDepth++
			} else if e.row != -1 {
				r.Failf("periodic refresh entry carries row %d", e.row)
				return r.Err()
			}
			b.queue = append(b.queue, e)
		}
		b.recalcMinDeadline()
		for j := range b.refPtr {
			p := r.Int()
			if p < 0 || p >= org.RowsPerSubarray {
				r.Failf("refptr %d out of range", p)
				return r.Err()
			}
			b.refPtr[j] = p
		}
		min := int(^uint(0) >> 1)
		for j := range b.refreshed {
			n := r.Int()
			if n < 0 {
				r.Failf("negative refresh count")
				return r.Err()
			}
			b.refreshed[j] = n
			if n < min {
				min = n
			}
		}
		b.minRef = min
		b.periodicDue = dram.Time(r.I64())
		// A lagging periodic phase would make Tick's catch-up loop push one
		// entry per interval since the phase. A live PeriodicHiRA engine
		// stays within tRefSlack + one interval of the clock even across
		// idle-skip windows (NextEvent bounds every skip by the next
		// generation's mandatory time), so anything further back is
		// corruption — and a potential unbounded loop. Other modes never
		// advance (or read) the phase.
		if m.cfg.Periodic == PeriodicHiRA &&
			(b.periodicDue < now-(m.cfg.RefSlack+4*m.interval+m.lead) || b.periodicDue < 0) {
			r.Failf("periodic phase %d too far behind clock %d", b.periodicDue, now)
			return r.Err()
		}
		b.armedSet = r.Bool()
		if b.armedSet {
			b.armed = sched.Op{
				Kind: sched.OpKind(r.U8()),
				Rank: r.Int(), Bank: r.Int(),
				RowA: r.Int(), RowB: r.Int(),
				PreventiveA: r.Bool(), PreventiveB: r.Bool(),
			}
			b.armedCount = r.Int()
			if r.Err() != nil {
				return r.Err()
			}
			switch b.armed.Kind {
			case sched.OpRowRefresh, sched.OpHiRAPair, sched.OpRowRefreshBlocking:
			default:
				r.Failf("armed op kind %d invalid", b.armed.Kind)
				return r.Err()
			}
			if b.armed.Rank < 0 || b.armed.Rank >= org.RanksPerChannel ||
				b.armed.Bank < 0 || b.armed.Bank >= org.BanksPerRank() ||
				b.armed.RowA < -1 || b.armed.RowA >= rows ||
				b.armed.RowB < -1 || b.armed.RowB >= rows ||
				b.armedCount < 1 || b.armedCount > 2 {
				r.Failf("armed op out of range")
				return r.Err()
			}
			m.chArmed[b.ch]++
		} else {
			b.armed = sched.Op{}
			b.armedCount = 0
		}
		off := r.Int()
		b.offered = nil
		if off != 0 {
			b.offeredRow = r.Int()
			if r.Err() != nil {
				return r.Err()
			}
			if b.offeredRow < -1 || b.offeredRow >= rows || off > len(b.queue) {
				r.Failf("piggyback offer out of range")
				return r.Err()
			}
			if off > 0 {
				b.offered = &b.queue[off-1]
			} else {
				// Dangling live pointer: non-nil, matches no queue entry.
				b.offered = &refEntry{}
			}
		}
		if len(b.queue) > 0 && b.minDeadline < m.chNext[b.ch] {
			m.chNext[b.ch] = b.minDeadline
		}
	}
	hasREF := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if hasREF != (m.ref != nil) {
		r.Failf("baseline REF presence mismatch")
		return r.Err()
	}
	if m.ref != nil {
		return m.ref.Restore(r)
	}
	return r.Err()
}

// snapshot appends the zoo engines' shared state: the rank-REF schedule,
// the mitigation tallies, and every channel's pending victim refreshes
// in FIFO order.
func (m *mitigationBase) snapshot(w *snap.Writer) {
	m.ref.Snapshot(w)
	w.U64(m.stats.Triggers)
	w.U64(m.stats.VictimRefreshes)
	w.U64(m.stats.DroppedVictims)
	w.U64(m.stats.TableResets)
	for i := range m.rings {
		ring := &m.rings[i]
		w.Len(ring.n)
		for j := 0; j < ring.n; j++ {
			v := ring.at(j)
			w.Int(v.rank)
			w.Int(v.bank)
			w.Int(v.row)
		}
	}
}

// restore reads state written by snapshot, validating every queued
// victim against the organization: the controller executes them as row
// refreshes, so a corrupt one must be an error here, not a panic there.
func (m *mitigationBase) restore(r *snap.Reader) error {
	if err := m.ref.Restore(r); err != nil {
		return err
	}
	m.stats = MitigationStats{
		Triggers:        r.U64(),
		VictimRefreshes: r.U64(),
		DroppedVictims:  r.U64(),
		TableResets:     r.U64(),
	}
	rows := m.org.RowsPerBank()
	for i := range m.rings {
		ring := &m.rings[i]
		*ring = victimRing{}
		n := r.Len(victimRingCap, 3)
		for j := 0; j < n; j++ {
			v := victimRef{rank: r.Int(), bank: r.Int(), row: r.Int()}
			if r.Err() != nil {
				return r.Err()
			}
			if v.rank < 0 || v.rank >= m.org.RanksPerChannel || v.bank < 0 || v.bank >= m.bpr ||
				v.row < 0 || v.row >= rows {
				r.Failf("pending victim %d out of range", j)
				return r.Err()
			}
			ring.push(v)
		}
	}
	return r.Err()
}

// Snapshot appends Graphene's full mutable state — the shared zoo state,
// the window reset time, and every bank's Misra-Gries table (entries in
// table order, then the spillover floor) — to w.
func (g *Graphene) Snapshot(w *snap.Writer) {
	g.snapshot(w)
	w.I64(int64(g.nextReset))
	for i := range g.banks {
		b := &g.banks[i]
		w.Len(b.n)
		for j := 0; j < b.n; j++ {
			w.Int(int(b.rows[j]))
			w.U64(uint64(b.cnts[j]))
		}
		w.U64(uint64(b.spill))
	}
}

// Restore reads state written by Snapshot into a freshly constructed
// engine of identical configuration. now is the restored controller
// clock: a live window reset time lies at most one tREFW ahead of it and
// less than one behind (idle skips can defer Tick past it briefly), so
// anything else is corruption — and a far-past one would spin Tick's
// catch-up loop.
func (g *Graphene) Restore(r *snap.Reader, now dram.Time) error {
	if err := g.restore(r); err != nil {
		return err
	}
	g.nextReset = dram.Time(r.I64())
	if r.Err() == nil && (g.nextReset <= now-g.t.TREFW || g.nextReset > now+g.t.TREFW) {
		r.Failf("graphene window reset %d out of range at clock %d", g.nextReset, now)
	}
	for i := range g.banks {
		b := &g.banks[i]
		b.n = r.Len(len(b.rows), 2)
		for j := 0; j < b.n; j++ {
			row := r.Int()
			cnt := r.U64()
			if r.Err() != nil {
				return r.Err()
			}
			if row < 0 || row >= g.rpb || cnt > math.MaxUint32 {
				r.Failf("graphene table entry out of range")
				return r.Err()
			}
			b.rows[j], b.cnts[j] = int32(row), uint32(cnt)
		}
		spill := r.U64()
		if r.Err() == nil && spill > math.MaxUint32 {
			r.Failf("graphene spillover %d out of range", spill)
		}
		b.spill = uint32(spill)
	}
	return r.Err()
}

// Snapshot appends RFM's full mutable state — the shared zoo state and
// every bank's RAA counter and majority-vote latch — to w.
func (f *RFM) Snapshot(w *snap.Writer) {
	f.snapshot(w)
	for i := range f.banks {
		b := &f.banks[i]
		w.U64(uint64(b.raa))
		w.Bool(b.latched)
		w.Int(int(b.latch))
		w.U64(uint64(b.latchN))
	}
}

// Restore reads state written by Snapshot into a freshly constructed
// engine of identical configuration. A live RAA counter stays below
// RAAIMT (reaching it fires the RFM event and clears it), and the latch
// count cannot exceed the activations since the last clear.
func (f *RFM) Restore(r *snap.Reader, _ dram.Time) error {
	if err := f.restore(r); err != nil {
		return err
	}
	for i := range f.banks {
		b := &f.banks[i]
		raa := r.U64()
		b.latched = r.Bool()
		latch := r.Int()
		latchN := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		if raa >= uint64(f.cfg.RAAIMT) || latchN > raa || latch < 0 || latch >= f.rpb {
			r.Failf("RFM bank %d state out of range", i)
			return r.Err()
		}
		b.raa, b.latch, b.latchN = uint32(raa), int32(latch), uint32(latchN)
	}
	return r.Err()
}
