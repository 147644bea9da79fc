package sched

import (
	"math"

	"hira/internal/dram"
	"hira/internal/snap"
)

// Sub returns the per-field difference s - o. Every Stats field is a
// monotone additive counter (the scheduler only ever increments them, and
// idle-skip replay adds precomputed deltas), so the difference between
// two cumulative snapshots of one run equals the stats of the interval
// between them exactly — the identity the resumable cell runner relies on
// to report measured-phase stats without resetting mid-run state.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:               s.Reads - o.Reads,
		Writes:              s.Writes - o.Writes,
		RowHits:             s.RowHits - o.RowHits,
		RowMisses:           s.RowMisses - o.RowMisses,
		ACTs:                s.ACTs - o.ACTs,
		PREs:                s.PREs - o.PREs,
		REFs:                s.REFs - o.REFs,
		HiRAPiggybacks:      s.HiRAPiggybacks - o.HiRAPiggybacks,
		HiRAPairs:           s.HiRAPairs - o.HiRAPairs,
		StandaloneRefreshes: s.StandaloneRefreshes - o.StandaloneRefreshes,
		SeqBlocked:          s.SeqBlocked - o.SeqBlocked,
		CanACTBlocked:       s.CanACTBlocked - o.CanACTBlocked,
		ReadLatencySum:      s.ReadLatencySum - o.ReadLatencySum,
		ReadCount:           s.ReadCount - o.ReadCount,
	}
}

// SnapshotStats appends every Stats field to w. Exported so the system
// snapshot's header-extractable mark section can reuse the exact same
// 14-counter codec the controller snapshot uses.
func SnapshotStats(w *snap.Writer, s Stats) {
	snapStats(w, s)
}

// RestoreStats reads a Stats written by SnapshotStats.
func RestoreStats(r *snap.Reader) Stats {
	return restoreStats(r)
}

// snapStats appends every Stats field.
func snapStats(w *snap.Writer, s Stats) {
	w.U64(s.Reads)
	w.U64(s.Writes)
	w.U64(s.RowHits)
	w.U64(s.RowMisses)
	w.U64(s.ACTs)
	w.U64(s.PREs)
	w.U64(s.REFs)
	w.U64(s.HiRAPiggybacks)
	w.U64(s.HiRAPairs)
	w.U64(s.StandaloneRefreshes)
	w.U64(s.SeqBlocked)
	w.U64(s.CanACTBlocked)
	w.I64(int64(s.ReadLatencySum))
	w.U64(s.ReadCount)
}

func restoreStats(r *snap.Reader) Stats {
	return Stats{
		Reads:               r.U64(),
		Writes:              r.U64(),
		RowHits:             r.U64(),
		RowMisses:           r.U64(),
		ACTs:                r.U64(),
		PREs:                r.U64(),
		REFs:                r.U64(),
		HiRAPiggybacks:      r.U64(),
		HiRAPairs:           r.U64(),
		StandaloneRefreshes: r.U64(),
		SeqBlocked:          r.U64(),
		CanACTBlocked:       r.U64(),
		ReadLatencySum:      dram.Time(r.I64()),
		ReadCount:           r.U64(),
	}
}

// maxActTimes bounds a rank's serialized tFAW activation timeline; the
// live list is pruned to the tFAW window (a handful of entries), so
// anything larger is corruption.
const maxActTimes = 1024

// Snapshot appends the controller's full mutable state — clock, stats,
// per-channel queues (oldest first, merged from the per-bank FIFOs on
// seq, an order that uniquely determines every per-bank bucket), bank
// and rank timing state, any in-flight HiRA sequence, and the idle-skip
// horizon — to w.
// The freelist and per-tick scratch are not state: a restored controller
// simply reallocates nodes on demand, which is behaviorally identical.
func (c *Controller) Snapshot(w *snap.Writer) {
	w.I64(int64(c.now))
	w.U64(c.arrival)
	snapStats(w, c.Stats)
	for _, ch := range c.chans {
		w.I64(int64(ch.lastCmd))
		w.Bool(ch.hasCmd)
		w.I64(int64(ch.dataBusFree))
		w.Bool(ch.draining)
		w.I64(int64(ch.idleUntil))
		w.U64(ch.idleSeqBlocked)
		w.U64(ch.idleCanACT)

		w.Bool(ch.seq != nil)
		if s := ch.seq; s != nil {
			w.Int(s.n)
			w.Int(s.next)
			w.Int(s.rank)
			w.Int(s.flat)
			w.Bool(s.access)
			w.I64(int64(s.plannedSecond))
			for _, sc := range s.cmds {
				w.U8(uint8(sc.kind))
				w.U8(uint8(sc.phase))
				w.Int(sc.rank)
				w.Int(sc.bank)
				w.Int(sc.row)
				w.I64(int64(sc.due))
			}
		}

		for i := range ch.banks {
			b := &ch.banks[i]
			w.Bool(b.open)
			w.Int(b.row)
			w.I64(int64(b.actAt))
			w.I64(int64(b.readyACT))
			w.I64(int64(b.readyPRE))
			w.I64(int64(b.readyCol))
			w.Bool(b.reserved)
			w.Bool(b.pendingPRE)
			w.I64(int64(b.pendingPREAt))
		}
		for i := range ch.ranks {
			rk := &ch.ranks[i]
			w.I64(int64(rk.lastACT))
			w.Int(rk.lastACTGroup)
			w.Len(len(rk.actTimes))
			for _, t := range rk.actTimes {
				w.I64(int64(t))
			}
			w.I64(int64(rk.refBusy))
			w.Bool(rk.refDrain)
			w.Bool(rk.pendingREF)
		}
		for k := range ch.q {
			w.Len(ch.q[k].count)
			a := c.arrivals(ch, k)
			for n := a.next(); n != nil; n = a.next() {
				w.U64(n.seq)
				w.Int(n.req.Loc.Rank)
				w.Int(n.req.Loc.Bank)
				w.Int(n.req.Loc.Row)
				w.Int(n.req.Loc.Col)
				w.Bool(n.req.Write)
				w.Int(n.req.Core)
				w.U64(n.req.Token)
				w.I64(int64(n.req.Arrive))
			}
		}
	}
}

// Restore reads state written by Snapshot into a freshly constructed
// controller of identical configuration. maxCore bounds request core ids
// (the controller itself never indexes by core, but its completion
// callback does, so a corrupt id must be rejected here). Every index and
// row serialized is validated against the organization, making a corrupt
// snapshot an error rather than a controller that panics mid-tick.
func (c *Controller) Restore(r *snap.Reader, maxCore int) error {
	org := c.cfg.Org
	rows := org.RowsPerBank()
	c.now = dram.Time(r.I64())
	if c.now < 0 {
		r.Failf("negative clock %d", c.now)
	}
	c.arrival = r.U64()
	c.Stats = restoreStats(r)
	for _, ch := range c.chans {
		ch.lastCmd = dram.Time(r.I64())
		ch.hasCmd = r.Bool()
		ch.dataBusFree = dram.Time(r.I64())
		ch.draining = r.Bool()
		ch.idleUntil = dram.Time(r.I64())
		ch.idleSeqBlocked = r.U64()
		ch.idleCanACT = r.U64()

		if r.Bool() {
			s := &ch.seqStore
			s.n = r.Int()
			s.next = r.Int()
			s.rank = r.Int()
			s.flat = r.Int()
			s.access = r.Bool()
			s.plannedSecond = dram.Time(r.I64())
			for i := range s.cmds {
				sc := &s.cmds[i]
				sc.kind = dram.Kind(r.U8())
				sc.phase = dram.HiRAPhase(r.U8())
				sc.rank = r.Int()
				sc.bank = r.Int()
				sc.row = r.Int()
				sc.due = dram.Time(r.I64())
				if r.Err() != nil {
					return r.Err()
				}
				if sc.kind > dram.KindREF || sc.phase > dram.HiRASecondACT ||
					sc.rank < 0 || sc.rank >= org.RanksPerChannel ||
					sc.bank < 0 || sc.bank >= org.BanksPerRank() ||
					sc.row < 0 || sc.row >= rows {
					r.Failf("sequence command %d out of range", i)
					return r.Err()
				}
			}
			if s.n < 1 || s.n > len(s.cmds) || s.next < 0 || s.next >= s.n ||
				s.rank < 0 || s.rank >= org.RanksPerChannel ||
				s.flat < 0 || s.flat >= len(ch.banks) {
				r.Failf("HiRA sequence state out of range")
				return r.Err()
			}
			ch.seq = s
		} else {
			ch.seq = nil
		}

		ch.pendingPREs = 0
		for i := range ch.banks {
			b := &ch.banks[i]
			b.open = r.Bool()
			b.row = r.Int()
			b.actAt = dram.Time(r.I64())
			b.readyACT = dram.Time(r.I64())
			b.readyPRE = dram.Time(r.I64())
			b.readyCol = dram.Time(r.I64())
			b.reserved = r.Bool()
			b.pendingPRE = r.Bool()
			b.pendingPREAt = dram.Time(r.I64())
			if r.Err() != nil {
				return r.Err()
			}
			if b.open && (b.row < 0 || b.row >= rows) {
				r.Failf("bank %d open row %d out of range", i, b.row)
				return r.Err()
			}
			if b.pendingPRE {
				ch.pendingPREs++
			}
			b.bq[qRead] = bankQ{}
			b.bq[qWrite] = bankQ{}
		}
		for i := range ch.ranks {
			rk := &ch.ranks[i]
			rk.lastACT = dram.Time(r.I64())
			rk.lastACTGroup = r.Int()
			nt := r.Len(maxActTimes, 1)
			rk.actTimes = rk.actTimes[:0]
			for j := 0; j < nt; j++ {
				rk.actTimes = append(rk.actTimes, dram.Time(r.I64()))
			}
			rk.refBusy = dram.Time(r.I64())
			rk.refDrain = r.Bool()
			rk.pendingREF = r.Bool()
		}

		for k := range ch.q {
			q := &ch.q[k]
			*q = kindQ{active: q.active[:0], pos: q.pos}
			for i := range q.pos {
				q.pos[i] = -1
			}
			capN := readQueueCap
			if k == qWrite {
				capN = writeQueueCap
			}
			cnt := r.Len(capN, 6)
			var last uint64
			for i := 0; i < cnt; i++ {
				var req Request
				seq := r.U64()
				// The per-bank FIFOs are rebuilt in snapshot order, and the
				// scheduler merges them on seq: the queue must arrive
				// strictly oldest first, numbered below the arrival counter.
				if (i > 0 && seq <= last) || seq >= c.arrival {
					r.Failf("queued request %d: sequence %d out of order", i, seq)
					return r.Err()
				}
				last = seq
				req.Loc.Channel = ch.id
				req.Loc.Rank = r.Int()
				req.Loc.Bank = r.Int()
				req.Loc.Row = r.Int()
				req.Loc.Col = r.Int()
				req.Write = r.Bool()
				req.Core = r.Int()
				req.Token = r.U64()
				req.Arrive = dram.Time(r.I64())
				if r.Err() != nil {
					return r.Err()
				}
				if req.Loc.Rank < 0 || req.Loc.Rank >= org.RanksPerChannel ||
					req.Loc.Bank < 0 || req.Loc.Bank >= org.BanksPerRank() ||
					req.Loc.Row < 0 || req.Loc.Row >= rows || req.Loc.Col < 0 ||
					req.Core < 0 || req.Core >= maxCore {
					r.Failf("queued request %d out of range", i)
					return r.Err()
				}
				c.pushNode(ch, k, &reqNode{req: req, seq: seq},
					c.flat(req.Loc.Rank, req.Loc.Bank))
			}
		}
		// Recount per-bank open-row hits now that both the queues and the
		// bank states are in place.
		for i := range ch.banks {
			b := &ch.banks[i]
			if !b.open {
				continue
			}
			for k := range b.bq {
				h := 0
				for n := b.bq[k].head; n != nil; n = n.bnext {
					if n.req.Loc.Row == b.row {
						h++
					}
				}
				b.bq[k].hits = h
			}
		}
	}
	return r.Err()
}

// Snapshot appends the conventional REF engine's schedule.
func (b *BaselineREF) Snapshot(w *snap.Writer) {
	for _, ranks := range b.nextAt {
		for _, at := range ranks {
			w.I64(int64(at))
		}
	}
}

// Restore reads a schedule written by Snapshot.
func (b *BaselineREF) Restore(r *snap.Reader) error {
	for _, ranks := range b.nextAt {
		for i := range ranks {
			ranks[i] = dram.Time(r.I64())
		}
	}
	return r.Err()
}

// SnapshotForensicsTally appends every ForensicsTally counter to w. The
// system snapshot's header-extractable mark section carries the tally
// through it, so a past-warmup resume reads the measured phase's
// forensics baseline straight from a checkpoint header.
func SnapshotForensicsTally(w *snap.Writer, t ForensicsTally) {
	w.U64(t.DemandACTs)
	w.U64(t.RefreshACTs)
	w.U64(t.RowsReset)
	w.U64(t.REFRowsReset)
	for i := range t.Crossings {
		w.U64(t.Crossings[i])
		w.U64(t.VictimCrossings[i])
	}
	w.U64(t.PreventiveUseful)
	w.U64(t.PreventiveWasted)
	w.U64(t.PeriodicRowRefreshes)
	w.U64(t.PiggybackPreventive)
	w.U64(t.PiggybackPeriodic)
}

// RestoreForensicsTally reads a tally written by SnapshotForensicsTally.
func RestoreForensicsTally(r *snap.Reader) ForensicsTally {
	var t ForensicsTally
	t.DemandACTs = r.U64()
	t.RefreshACTs = r.U64()
	t.RowsReset = r.U64()
	t.REFRowsReset = r.U64()
	for i := range t.Crossings {
		t.Crossings[i] = r.U64()
		t.VictimCrossings[i] = r.U64()
	}
	t.PreventiveUseful = r.U64()
	t.PreventiveWasted = r.U64()
	t.PeriodicRowRefreshes = r.U64()
	t.PiggybackPreventive = r.U64()
	t.PiggybackPeriodic = r.U64()
	return t
}

// readU32 reads a uvarint that must fit a uint32 ledger counter.
func readU32(r *snap.Reader) uint32 {
	v := r.U64()
	if v > math.MaxUint32 {
		r.Failf("counter %d overflows uint32", v)
		return 0
	}
	return uint32(v)
}

// SnapshotForensics appends the forensics ledger's state to w: a
// presence flag, then (when forensics are enabled) the tally, running
// maxes, REF rotation pointers, the flight recorder and the row ledger.
// A full snapshot (delta false) carries every row with a nonzero count
// or exposure and every recorded event; a differential one carries only
// the rows changed and the events recorded since the last
// ResetForensicsTouched. Rows are written in ascending (bank, row)
// order as index gaps, so equal ledgers encode to equal bytes however
// their tables are laid out.
func (c *Controller) SnapshotForensics(w *snap.Writer, delta bool) {
	f := c.forensics
	w.Bool(f != nil)
	if f == nil {
		return
	}
	SnapshotForensicsTally(w, f.tally)
	w.U64(uint64(f.maxExposure))
	for i := range f.bankMax {
		w.U64(uint64(f.bankMax[i]))
		w.Int(int(f.refPtr[i]))
	}
	w.Bool(f.pre != nil)
	if f.pre != nil {
		w.Len(f.preFill)
		start := f.preIdx - f.preFill + len(f.pre)
		for i := 0; i < f.preFill; i++ {
			snapCommand(w, f.pre[(start+i)%len(f.pre)])
		}
		w.Int(f.post)
		w.U64(f.dropped)
		from := 0
		if delta {
			from = f.eventsBase
		}
		w.Len(from)
		w.Len(len(f.events) - from)
		for _, cmd := range f.events[from:] {
			snapCommand(w, cmd)
		}
	}
	rows := f.rows.ntouched
	if !delta {
		rows = f.ledgerRows()
	}
	w.Len(rows)
	prev := uint32(1)
	f.eachLedgerRow(delta, func(k uint32, e *ledgerEntry) {
		w.U64(uint64(k - prev))
		prev = k
		w.U64(uint64(e.count))
		w.U64(uint64(e.exposure))
	})
}

// eachLedgerRow calls fn, ascending by key, with every row a snapshot
// carries: the rows changed since the last ResetForensicsTouched
// (delta), or every row with a nonzero count or exposure. A touched row
// is always in the table (marking follows an insert or a find).
func (f *Forensics) eachLedgerRow(delta bool, fn func(key uint32, e *ledgerEntry)) {
	if delta {
		each(f.rows.touched, func(k uint32) { fn(k, f.rows.find(k)) })
		return
	}
	each(f.rows.present, func(k uint32) {
		if e := f.rows.find(k); e.count != 0 || e.exposure != 0 {
			fn(k, e)
		}
	})
}

// ledgerRows returns how many rows a full snapshot carries.
func (f *Forensics) ledgerRows() (rows int) {
	f.eachLedgerRow(false, func(uint32, *ledgerEntry) { rows++ })
	return rows
}

// snapCommand appends one recorded DRAM command.
func snapCommand(w *snap.Writer, cmd dram.Command) {
	w.U8(uint8(cmd.Kind))
	w.U8(uint8(cmd.Phase))
	w.Bool(cmd.AutoPrecharge)
	w.I64(int64(cmd.At))
	w.Int(cmd.Loc.Channel)
	w.Int(cmd.Loc.Rank)
	w.Int(cmd.Loc.Bank)
	w.Int(cmd.Loc.Row)
	w.Int(cmd.Loc.Col)
}

// restoreCommand reads a command written by snapCommand, rejecting
// unknown kinds and phases.
func restoreCommand(r *snap.Reader) dram.Command {
	cmd := dram.Command{
		Kind:          dram.Kind(r.U8()),
		Phase:         dram.HiRAPhase(r.U8()),
		AutoPrecharge: r.Bool(),
		At:            dram.Time(r.I64()),
	}
	cmd.Loc.Channel = r.Int()
	cmd.Loc.Rank = r.Int()
	cmd.Loc.Bank = r.Int()
	cmd.Loc.Row = r.Int()
	cmd.Loc.Col = r.Int()
	if cmd.Kind == dram.KindNone || cmd.Kind > dram.KindREF || cmd.Phase > dram.HiRASecondACT {
		r.Failf("recorded command kind %d phase %d invalid", cmd.Kind, cmd.Phase)
	}
	return cmd
}

// RestoreForensics reads state written by SnapshotForensics into a
// controller configured like the snapshotted one (forensics enabled
// identically). A full snapshot (delta false) replaces the ledger; a
// differential one is applied on top of the state restored from its
// base. Either way the restored state is the newest checkpoint, so the
// touch epoch starts empty. Every row index, pointer and recorder bound
// is validated, so a corrupt checkpoint is an error, never a ledger
// that panics mid-tick.
func (c *Controller) RestoreForensics(r *snap.Reader, delta bool) error {
	f := c.forensics
	if present := r.Bool(); r.Err() == nil && present != (f != nil) {
		r.Failf("forensics presence mismatch")
	}
	if f == nil || r.Err() != nil {
		return r.Err()
	}
	f.tally = RestoreForensicsTally(r)
	f.maxExposure = readU32(r)
	for i := range f.bankMax {
		f.bankMax[i] = readU32(r)
		ptr := r.Int()
		if r.Err() == nil && (ptr < 0 || ptr >= f.rowsPerBank) {
			r.Failf("forensics REF pointer %d out of range", ptr)
		}
		f.refPtr[i] = int32(ptr)
	}
	if hasRec := r.Bool(); r.Err() == nil && hasRec != (f.pre != nil) {
		r.Failf("flight recorder presence mismatch")
	}
	if r.Err() != nil {
		return r.Err()
	}
	if f.pre != nil {
		f.preFill = r.Len(len(f.pre), 9)
		for i := 0; i < f.preFill; i++ {
			f.pre[i] = restoreCommand(r)
		}
		f.preIdx = f.preFill % len(f.pre)
		f.post = r.Int()
		if r.Err() == nil && (f.post < 0 || f.post > recorderPost) {
			r.Failf("flight recorder post window %d out of range", f.post)
		}
		f.dropped = r.U64()
		from := r.Len(cap(f.events), 1)
		if !delta {
			f.events = f.events[:0]
		}
		if r.Err() == nil && from != len(f.events) {
			r.Failf("flight recorder delta starts at event %d, base holds %d", from, len(f.events))
		}
		n := r.Len(cap(f.events)-len(f.events), 9)
		for i := 0; i < n && r.Err() == nil; i++ {
			f.events = append(f.events, restoreCommand(r))
		}
		f.eventsBase = len(f.events)
	}
	if !delta {
		f.rows.clear()
	}
	span := len(f.bankMax) * f.rowsPerBank
	n := r.Len(span, 3)
	key := uint64(1)
	for i := 0; i < n; i++ {
		gap := r.U64()
		count, exposure := readU32(r), readU32(r)
		if r.Err() != nil {
			return r.Err()
		}
		if i > 0 && gap == 0 {
			r.Failf("forensics rows: non-increasing row index")
			return r.Err()
		}
		if gap > uint64(span) || key+gap > uint64(span) {
			r.Failf("forensics rows: row index out of range")
			return r.Err()
		}
		key += gap
		if !delta && count == 0 && exposure == 0 {
			r.Failf("forensics rows: full snapshot carries an untouched row")
			return r.Err()
		}
		if e := f.rows.find(uint32(key)); e != nil || count != 0 || exposure != 0 {
			if e == nil {
				e = f.rows.insert(uint32(key))
			}
			e.count, e.exposure = count, exposure
		}
	}
	return r.Err()
}

// ResetForensicsTouched starts a new differential-checkpoint epoch for
// the ledger: the next delta SnapshotForensics carries only rows changed
// and events recorded from here on.
func (c *Controller) ResetForensicsTouched() {
	if f := c.forensics; f != nil {
		f.rows.resetTouched()
		f.eventsBase = len(f.events)
	}
}
