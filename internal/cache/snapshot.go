package cache

import (
	"math/bits"

	"hira/internal/snap"
)

// Snapshot appends the cache's mutable state to w as a delta against an
// empty cache: the stamp counter and stats, then every occupied line in
// the per-line form SnapshotDelta uses. A run fills only a share of an
// 8 MB LLC at the ticks it checkpoints, so the encoding costs bytes
// proportional to the lines the run has filled, not to cache capacity.
// Geometry is construction-time state; the reader validates line
// indices against its own geometry instead of reading it.
//
// A line is encoded as its index gap from the previous encoded line,
// the high bits of its tag (the low bits are the set index, implied by
// the line index) as a difference from the previous line's, and one
// byte holding the dirty flag and the line's LRU rank within its set.
// Replacement depends only on that order, not on the stamps behind it,
// so ranks restore behavior exactly while costing a byte instead of a
// stamp; a restored cache gives its lines canonical stamps (rank + 1),
// below every stamp the restored counter hands out next, and encodes
// the same ranks again, so snapshots of equal states are equal bytes.
func (c *Cache) Snapshot(w *snap.Writer) { c.writeLines(w, c.validBits, c.occupied) }

// SnapshotDelta appends only the lines touched since the last
// ResetTouched (plus the stamp counter and stats, which are cheap and
// always change). Touched lines are the most recently used of their
// sets, so their ranks sit above every untouched line's. Applying the
// delta on top of the state it was diffed against reproduces the
// current state exactly; lines never touched keep their base values.
func (c *Cache) SnapshotDelta(w *snap.Writer) { c.writeLines(w, c.touched, c.ntouched) }

// writeLines is the one line encoder behind both snapshot forms: the
// stamp counter and stats, the count n of selected lines (the bits set
// in sel: the valid-line or touched-line bitmap), then each line (see
// Snapshot), ascending. Every carried line is valid: full snapshots
// carry valid lines, and a touched line was filled or hit, which leaves
// it valid.
func (c *Cache) writeLines(w *snap.Writer, sel []uint64, n int) {
	w.U64(c.stamp)
	w.U64(c.Stats.Hits)
	w.U64(c.Stats.Misses)
	w.U64(c.Stats.Writebacks)
	w.Len(n)
	prev, prevHi := 0, uint64(0)
	for wi, word := range sel {
		for ; word != 0; word &= word - 1 {
			i := wi<<6 + bits.TrailingZeros64(word)
			hi := c.lines[i].tag >> c.setBits
			w.U64(uint64(i - prev))
			w.I64(int64(hi - prevHi))
			prev, prevHi = i, hi
			flags := c.rank(i) << 1
			if c.dirty[i] {
				flags |= 1
			}
			w.U8(flags)
		}
	}
}

// rank returns valid line i's LRU rank in its set: how many valid lines
// of the set were used less recently. Validity is a nonzero stamp, so
// the count reads only stamps, and it is branch-free: the comparisons
// are coin flips a branch predictor would mostly miss.
func (c *Cache) rank(i int) uint8 {
	base := i - i%c.assoc
	own := c.lines[i].stamp
	r := uint64(0)
	for _, l := range c.lines[base : base+c.assoc] {
		r += ((l.stamp - own) >> 63) & ((0 - l.stamp) >> 63) // 0 < stamp < own; stamps stay below 2^63
	}
	return uint8(r)
}

// ApplyDelta reads state written by SnapshotDelta into a cache of
// identical geometry, overwriting only the lines the delta carries. The
// receiver must already hold the base state the delta was diffed
// against for the result to be meaningful.
func (c *Cache) ApplyDelta(r *snap.Reader) error { return c.readLines(r, false) }

// Restore reads state written by Snapshot into a cache of identical
// geometry. Every line the snapshot does not carry is left in its zero
// (never-filled) state, whatever the cache held before. A cache fresh
// from New already is all zeros, so restoring into one (what every
// checkpoint resume does) skips clearing its multi-MB line arrays.
func (c *Cache) Restore(r *snap.Reader) error {
	if c.stamp != 0 || c.decoded {
		clear(c.lines)
		clear(c.validBits)
		clear(c.dirty)
		c.occupied = 0
	}
	if err := c.readLines(r, true); err != nil {
		return err
	}
	// The restored state is by definition the most recent checkpoint of
	// its trajectory, so the next delta diffs against it.
	c.ResetTouched()
	return nil
}

// readLines is the one validating line decoder behind Restore and
// ApplyDelta: line indices must be in range and strictly increasing,
// tags must fit, and each set's ranks must be canonical. In a full
// snapshot (full) a set's lines carry ranks 0..k-1; in a delta its
// carried lines carry the top ranks above the set's untouched valid
// lines, which keep their relative order.
func (c *Cache) readLines(r *snap.Reader, full bool) error {
	c.decoded = true
	c.stamp = r.U64()
	c.Stats.Hits = r.U64()
	c.Stats.Misses = r.U64()
	c.Stats.Writebacks = r.U64()
	n := r.Len(len(c.lines), 3)
	if r.Err() != nil {
		return r.Err()
	}
	idx, hi := -1, uint64(0)
	set := -1
	var carried, rankBits uint64 // the current set's carried ways and ranks
	for k := 0; k < n; k++ {
		gap := r.U64()
		dhi := r.I64()
		flags := r.U8()
		if r.Err() != nil {
			return r.Err()
		}
		if gap > uint64(len(c.lines)) || (k > 0 && gap == 0) {
			r.Failf("cache lines: line gap %d out of range", gap)
			return r.Err()
		}
		idx += int(gap)
		if k == 0 {
			idx++ // the first gap is the index itself
		}
		if idx >= len(c.lines) {
			r.Failf("cache lines: line index %d out of range", idx)
			return r.Err()
		}
		hi += uint64(dhi)
		if hi > ^uint64(0)>>c.setBits {
			r.Failf("cache lines: tag out of range")
			return r.Err()
		}
		rank := int(flags >> 1)
		if rank >= c.assoc {
			r.Failf("cache lines: LRU rank %d out of range", rank)
			return r.Err()
		}
		if s := idx / c.assoc; s != set {
			if set >= 0 && !c.settleSet(set, carried, rankBits, full) {
				r.Failf("cache lines: set %d ranks not canonical", set)
				return r.Err()
			}
			set, carried, rankBits = s, 0, 0
		}
		carried |= 1 << uint(idx%c.assoc)
		rankBits |= 1 << uint(rank)
		if c.lines[idx].stamp == 0 {
			c.validBits[idx>>6] |= 1 << (idx & 63)
			c.occupied++
		}
		c.lines[idx] = line{tag: hi<<c.setBits | uint64(set), stamp: uint64(rank) + 1}
		c.dirty[idx] = flags&1 != 0
	}
	if set >= 0 && !c.settleSet(set, carried, rankBits, full) {
		r.Failf("cache lines: set %d ranks not canonical", set)
		return r.Err()
	}
	return r.Err()
}

// settleSet finishes decoding one set's carried lines (ways in the
// carried mask, their ranks in the ranks mask): it checks the ranks are
// exactly the set's top ranks — all of 0..k-1 in a full snapshot, where
// the set holds no other valid line — and gives the set's untouched
// valid ways canonical stamps 1..u in their existing order.
func (c *Cache) settleSet(set int, carried, ranks uint64, full bool) bool {
	base := set * c.assoc
	var untouched [maxAssoc]int
	u := 0
	for a := 0; a < c.assoc; a++ {
		if c.lines[base+a].stamp != 0 && carried&(1<<uint(a)) == 0 {
			untouched[u] = base + a
			u++
		}
	}
	d := bits.OnesCount64(carried)
	if bits.OnesCount64(ranks) != d || ranks != ((1<<uint(d))-1)<<uint(u) || (full && u > 0) {
		return false
	}
	// Insertion-sort the untouched ways by stamp (at most maxAssoc),
	// then renumber them below the carried lines.
	for i := 1; i < u; i++ {
		for j := i; j > 0 && c.lines[untouched[j]].stamp < c.lines[untouched[j-1]].stamp; j-- {
			untouched[j], untouched[j-1] = untouched[j-1], untouched[j]
		}
	}
	for i := 0; i < u; i++ {
		c.lines[untouched[i]].stamp = uint64(i) + 1
	}
	return true
}

// ResetTouched clears the touched-line set; the next SnapshotDelta
// diffs against the state at this call.
func (c *Cache) ResetTouched() {
	if c.ntouched == 0 {
		return
	}
	clear(c.touched)
	c.ntouched = 0
}
