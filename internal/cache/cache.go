// Package cache implements the shared last-level cache of the simulated
// system (Table 3: 8 MB, 8-way set-associative, 64-byte lines, LRU).
package cache

import "fmt"

// The simulated system's LLC geometry (Table 3): 8 MiB, 8-way, 64-byte
// lines. A line's set is (addr/LLCBlock) % LLCSets.
const (
	LLCBytes = 8 << 20
	LLCWays  = 8
	LLCBlock = 64
	LLCSets  = LLCBytes / (LLCWays * LLCBlock)
)

// NewLLC returns an empty cache of the LLC geometry.
func NewLLC() *Cache { return MustNew(LLCBytes, LLCWays, LLCBlock) }

// maxAssoc bounds the associativity: snapshots encode a line's LRU rank
// within its set in the flags byte, and validate a set's ranks with a
// 64-bit mask.
const maxAssoc = 64

// Cache is a set-associative write-back cache with LRU replacement.
// It is not safe for concurrent use.
type Cache struct {
	assoc     int
	sets      int
	blockBits uint
	setBits   uint
	setMask   uint64

	// lines holds each way's tag and access stamp, [set*assoc+way], so
	// a probe reads one contiguous stretch per set. A line is valid
	// exactly when its stamp is nonzero: every fill and decode stamps
	// the line it validates, and nothing invalidates a line without
	// clearing its stamp.
	lines []line
	dirty []bool
	stamp uint64

	// touched is a bitmap of lines mutated since the last ResetTouched,
	// for differential snapshots. Every mutation flows through touch
	// (hits bump the LRU stamp, fills rewrite the line then touch it),
	// so marking there covers all line state. A bitmap lets a delta
	// visit and reset only the touched lines' words, not every line.
	touched  []uint64
	ntouched int

	// occupied counts valid lines. Access only ever fills ways (no
	// operation invalidates one), so it grows monotonically from zero;
	// it is the line count of a full snapshot, which carries only
	// occupied lines.
	occupied int
	// validBits mirrors the valid lines as a bitmap, so a full snapshot
	// visits the occupied lines' words instead of every line. Only
	// fills of never-filled lines (and decodes) write it.
	validBits []uint64

	// decoded records that readLines has written lines. Together with a
	// zero stamp (every Access stamps a line) it proves the line arrays
	// still hold New's zeros, so Restore can skip clearing them.
	decoded bool

	Stats Stats
}

// line is one way's state: its block address and the access stamp
// that orders LRU replacement (smallest = least recent; 0 = invalid).
type line struct {
	tag, stamp uint64
}

// Stats counts cache events.
type Stats struct {
	Hits, Misses, Writebacks uint64
}

// New returns a cache of the given total size, associativity, and block
// size (all powers of two).
func New(sizeBytes, assoc, blockBytes int) (*Cache, error) {
	if sizeBytes <= 0 || assoc <= 0 || blockBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry")
	}
	if assoc > maxAssoc {
		return nil, fmt.Errorf("cache: associativity %d above %d", assoc, maxAssoc)
	}
	blocks := sizeBytes / blockBytes
	sets := blocks / assoc
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if blockBytes&(blockBytes-1) != 0 {
		return nil, fmt.Errorf("cache: block size %d not a power of two", blockBytes)
	}
	bits := uint(0)
	for 1<<bits < blockBytes {
		bits++
	}
	setBits := uint(0)
	for 1<<setBits < sets {
		setBits++
	}
	return &Cache{
		assoc:     assoc,
		sets:      sets,
		blockBits: bits,
		setBits:   setBits,
		setMask:   uint64(sets - 1),
		lines:     make([]line, blocks),
		dirty:     make([]bool, blocks),
		touched:   make([]uint64, (blocks+63)/64),
		validBits: make([]uint64, (blocks+63)/64),
	}, nil
}

// MustNew is New, panicking on error; for configurations known statically.
func MustNew(sizeBytes, assoc, blockBytes int) *Cache {
	c, err := New(sizeBytes, assoc, blockBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// Result describes the outcome of an access.
type Result struct {
	Hit bool
	// Writeback, if WB is true, is the address of a dirty block evicted
	// by this access, which must be written to memory.
	Writeback uint64
	WB        bool
}

// Access looks up addr, allocating on miss, and reports hit/miss and any
// dirty eviction.
func (c *Cache) Access(addr uint64, write bool) Result {
	blk := addr >> c.blockBits
	base := int(blk&c.setMask) * c.assoc
	set := c.lines[base : base+c.assoc]

	for w := range set {
		if set[w].tag == blk && set[w].stamp != 0 {
			c.touch(base + w)
			if write {
				c.dirty[base+w] = true
			}
			c.Stats.Hits++
			return Result{Hit: true}
		}
	}
	c.Stats.Misses++

	// Choose victim: an invalid way, else the least recently used way.
	// An invalid way's zero stamp is below every valid one, so the
	// first invalid way wins the scan.
	victim := 0
	for w := 1; w < len(set) && set[victim].stamp != 0; w++ {
		if set[w].stamp < set[victim].stamp {
			victim = w
		}
	}
	i := base + victim
	res := Result{}
	if set[victim].stamp == 0 {
		c.occupied++
		c.validBits[i>>6] |= 1 << (i & 63)
	} else if c.dirty[i] {
		res.WB = true
		res.Writeback = set[victim].tag << c.blockBits
		c.Stats.Writebacks++
	}
	set[victim].tag = blk
	c.dirty[i] = write
	c.touch(i)
	return res
}

// touch makes the line the most recently used in its set.
func (c *Cache) touch(i int) {
	c.stamp++
	c.lines[i].stamp = c.stamp
	if w, bit := i>>6, uint64(1)<<(i&63); c.touched[w]&bit == 0 {
		c.touched[w] |= bit
		c.ntouched++
	}
}

// Occupied returns the number of valid lines.
func (c *Cache) Occupied() int { return c.occupied }

// Touched returns the number of lines touched since the last
// ResetTouched.
func (c *Cache) Touched() int { return c.ntouched }

// HitRate returns hits / (hits+misses), or 0 with no accesses.
func (c *Cache) HitRate() float64 {
	total := c.Stats.Hits + c.Stats.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Stats.Hits) / float64(total)
}
