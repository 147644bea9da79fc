// Package cache implements the shared last-level cache of the simulated
// system (Table 3: 8 MB, 8-way set-associative, 64-byte lines, LRU).
package cache

import "fmt"

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

	tags  []uint64 // [set*assoc+way]
	valid []bool
	dirty []bool
	lru   []uint64 // access stamp per way; smallest = least recent
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
	// it sizes full snapshots, which carry only occupied lines.
	occupied int
	// validBits mirrors valid as a bitmap, so a full snapshot visits the
	// occupied lines' words instead of every line. Only fills of
	// never-filled lines (and decodes) write it.
	validBits []uint64

	// decoded records that readLines has written lines. Together with a
	// zero stamp (every Access stamps a line) it proves the line arrays
	// still hold New's zeros, so Restore can skip clearing them.
	decoded bool

	Stats Stats
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
		tags:      make([]uint64, blocks),
		valid:     make([]bool, blocks),
		dirty:     make([]bool, blocks),
		lru:       make([]uint64, blocks),
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
	set := int(blk & c.setMask)
	base := set * c.assoc

	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == blk {
			c.touch(i)
			if write {
				c.dirty[i] = true
			}
			c.Stats.Hits++
			return Result{Hit: true}
		}
	}
	c.Stats.Misses++

	// Choose victim: an invalid way, else the least recently used way.
	victim := -1
	oldest := ^uint64(0)
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if !c.valid[i] {
			victim = w
			break
		}
		if c.lru[i] < oldest {
			oldest = c.lru[i]
			victim = w
		}
	}
	i := base + victim
	res := Result{}
	if c.valid[i] && c.dirty[i] {
		res.WB = true
		res.Writeback = c.tags[i] << c.blockBits
		c.Stats.Writebacks++
	}
	if !c.valid[i] {
		c.occupied++
		c.validBits[i>>6] |= 1 << (i & 63)
	}
	c.tags[i] = blk
	c.valid[i] = true
	c.dirty[i] = write
	c.touch(i)
	return res
}

// touch makes the line the most recently used in its set.
func (c *Cache) touch(i int) {
	c.stamp++
	c.lru[i] = c.stamp
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
