package sched

import "math/bits"

// ledgerEntry is one tracked row's forensics state.
type ledgerEntry struct {
	// key is the row's system-flat index (bank*rowsPerBank + row) plus
	// one; 0 marks an empty slot.
	key      uint32
	count    uint32 // interref demand ACTs
	exposure uint32 // victim exposure
}

// ledgerMinSlots is a fresh ledger's table size. A benign 8-core run
// touches thousands of rows per bank set, so starting smaller only
// buys early doublings.
const ledgerMinSlots = 1 << 10

// rowLedger is the forensics ledger's row table: an open-addressing
// (linear probing) hash table holding only rows whose counters were ever
// nonzero, so a cell pays memory for the rows its run touched rather
// than for every (bank, row) of the organization. A row absent from the
// table has zero count and exposure. The table grows by doubling when
// half full, so a steady-state run that has seen its working set
// inserts without allocating.
//
// Two bitmaps over the row space (a bit per row, 1/64th of a dense
// counter array) order the table for snapshots without sorting: present
// marks the rows in the table, and touched the rows changed since the
// last checkpoint, like the LLC's touched lines.
type rowLedger struct {
	slots    []ledgerEntry // power-of-two length
	shift    uint          // 32 - log2(len(slots))
	n        int           // occupied slots
	present  []uint64      // bit key-1: the row is in the table
	touched  []uint64      // bit key-1: the row changed since resetTouched
	ntouched int
}

// newRowLedger returns an empty ledger over rows row keys.
func newRowLedger(rows int) rowLedger {
	l := rowLedger{present: make([]uint64, (rows+63)/64), touched: make([]uint64, (rows+63)/64)}
	l.alloc(ledgerMinSlots)
	return l
}

// alloc replaces the table with an empty one of size slots.
func (l *rowLedger) alloc(slots int) {
	l.slots = make([]ledgerEntry, slots)
	l.shift = 32
	for s := slots; s > 1; s >>= 1 {
		l.shift--
	}
	l.n = 0
}

// home returns key's first probe slot (Fibonacci hashing).
func (l *rowLedger) home(key uint32) int { return int((key * 0x9E3779B1) >> l.shift) }

// find returns key's entry, or nil when the row is untracked (zero).
func (l *rowLedger) find(key uint32) *ledgerEntry {
	mask := len(l.slots) - 1
	for i := l.home(key); ; i = (i + 1) & mask {
		e := &l.slots[i]
		if e.key == key {
			return e
		}
		if e.key == 0 {
			return nil
		}
	}
}

// insert returns key's entry, creating a zero one if absent. The
// pointer is valid until the next insert.
func (l *rowLedger) insert(key uint32) *ledgerEntry {
	if 2*(l.n+1) > len(l.slots) {
		l.grow()
	}
	mask := len(l.slots) - 1
	for i := l.home(key); ; i = (i + 1) & mask {
		e := &l.slots[i]
		if e.key == key {
			return e
		}
		if e.key == 0 {
			e.key = key
			l.n++
			l.present[(key-1)>>6] |= 1 << ((key - 1) & 63)
			return e
		}
	}
}

// grow doubles the table, re-placing every entry.
func (l *rowLedger) grow() {
	old := l.slots
	l.alloc(2 * len(old))
	mask := len(l.slots) - 1
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		i := l.home(e.key)
		for l.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		l.slots[i] = e
		l.n++
	}
}

// mark records that key's row changed since the last resetTouched.
func (l *rowLedger) mark(key uint32) {
	w, bit := (key-1)>>6, uint64(1)<<((key-1)&63)
	if l.touched[w]&bit == 0 {
		l.touched[w] |= bit
		l.ntouched++
	}
}

// resetTouched starts a new touch epoch: nothing has changed since.
func (l *rowLedger) resetTouched() {
	if l.ntouched > 0 {
		clear(l.touched)
		l.ntouched = 0
	}
}

// clear empties the table and the touch epoch, keeping its capacity.
func (l *rowLedger) clear() {
	clear(l.slots)
	clear(l.present)
	l.n = 0
	l.resetTouched()
}

// each calls fn with every row key whose bit is set in set (present or
// touched), ascending.
func each(set []uint64, fn func(key uint32)) {
	for w, word := range set {
		for word != 0 {
			fn(uint32(w<<6+bits.TrailingZeros64(word)) + 1)
			word &= word - 1
		}
	}
}
