package cache

import "hira/internal/snap"

// Snapshot appends the cache's mutable state to w as a delta against an
// empty cache: the stamp counter and stats, then every occupied line in
// the gap-encoded per-line form SnapshotDelta uses. A run fills only a
// small share of an 8 MB LLC at the ticks it checkpoints, so the encoding
// costs bytes proportional to the lines the run has filled, not to cache
// capacity. Geometry is construction-time state; the reader validates
// line indices against its own geometry instead of reading it.
func (c *Cache) Snapshot(w *snap.Writer) { c.writeLines(w, c.valid, c.occupied) }

// SnapshotSize returns an upper bound on Snapshot's encoded size, so
// composing snapshots can pre-size their buffers.
func (c *Cache) SnapshotSize() int { return linesSize(c.occupied) }

// SnapshotDelta appends only the lines touched since the last
// ResetTouched (plus the stamp counter and stats, which are cheap and
// always change). Applying the delta on top of the state it was diffed
// against reproduces the current state exactly; lines never touched keep
// their base values.
func (c *Cache) SnapshotDelta(w *snap.Writer) { c.writeLines(w, c.touched, c.ntouched) }

// SnapshotDeltaSize returns an upper bound on SnapshotDelta's encoded
// size, so delta writers can pre-size their buffers and encode with
// zero growth reallocations.
func (c *Cache) SnapshotDeltaSize() int { return linesSize(c.ntouched) }

// linesSize bounds writeLines' output for n lines. Per line: index gap
// (≤5) + tag (≤10) + lru (≤10) + flags (1), rounded up; plus the
// stamp/stats/count header.
func linesSize(n int) int { return 32*n + 64 }

// writeLines is the one line encoder behind both snapshot forms: the
// stamp counter and stats, the count n of selected lines, then each line
// with sel[i] set in ascending index order, as its index gap from the
// previous selected line, tag, LRU stamp and valid/dirty flags.
func (c *Cache) writeLines(w *snap.Writer, sel []bool, n int) {
	w.U64(c.stamp)
	w.U64(c.Stats.Hits)
	w.U64(c.Stats.Misses)
	w.U64(c.Stats.Writebacks)
	w.Len(n)
	prev := 0
	for i, t := range sel {
		if !t {
			continue
		}
		w.U64(uint64(i - prev))
		prev = i
		w.U64(c.tags[i])
		w.U64(c.lru[i])
		var flags uint8
		if c.valid[i] {
			flags |= 1
		}
		if c.dirty[i] {
			flags |= 2
		}
		w.U8(flags)
	}
}

// ApplyDelta reads state written by SnapshotDelta into a cache of
// identical geometry, overwriting only the lines the delta carries. The
// receiver must already hold the base state the delta was diffed
// against for the result to be meaningful.
func (c *Cache) ApplyDelta(r *snap.Reader) error { return c.readLines(r, false) }

// Restore reads state written by Snapshot into a cache of identical
// geometry. Every line the snapshot does not carry is left in its zero
// (never-filled) state, whatever the cache held before.
func (c *Cache) Restore(r *snap.Reader) error {
	clear(c.tags)
	clear(c.lru)
	clear(c.valid)
	clear(c.dirty)
	c.occupied = 0
	if err := c.readLines(r, true); err != nil {
		return err
	}
	// The restored state is by definition the most recent checkpoint of
	// its trajectory, so the next delta diffs against it.
	c.ResetTouched()
	return nil
}

// readLines is the one validating line decoder behind Restore and
// ApplyDelta: line indices must be in range and strictly increasing and
// flags must be known bits. A full snapshot (full) carries only occupied
// lines, so a line without its valid flag is corrupt there.
func (c *Cache) readLines(r *snap.Reader, full bool) error {
	c.stamp = r.U64()
	c.Stats.Hits = r.U64()
	c.Stats.Misses = r.U64()
	c.Stats.Writebacks = r.U64()
	n := r.Len(len(c.tags), 4)
	if r.Err() != nil {
		return r.Err()
	}
	idx := -1
	for k := 0; k < n; k++ {
		gap := r.U64()
		tag := r.U64()
		lru := r.U64()
		flags := r.U8()
		if r.Err() != nil {
			return r.Err()
		}
		if gap > uint64(len(c.tags)) {
			r.Failf("cache lines: line gap %d out of range", gap)
			return r.Err()
		}
		if k == 0 {
			idx = int(gap)
		} else {
			if gap == 0 {
				r.Failf("cache lines: non-increasing line index")
				return r.Err()
			}
			idx += int(gap)
		}
		if idx >= len(c.tags) {
			r.Failf("cache lines: line index %d out of range", idx)
			return r.Err()
		}
		if flags > 3 || (full && flags&1 == 0) {
			r.Failf("cache lines: bad line flags %#x", flags)
			return r.Err()
		}
		valid := flags&1 != 0
		if valid != c.valid[idx] {
			if valid {
				c.occupied++
			} else {
				c.occupied--
			}
		}
		c.tags[idx] = tag
		c.lru[idx] = lru
		c.valid[idx] = valid
		c.dirty[idx] = flags&2 != 0
	}
	return r.Err()
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
