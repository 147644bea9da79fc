package cache

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8, 64); err == nil {
		t.Error("accepted zero size")
	}
	if _, err := New(8<<20, 0, 64); err == nil {
		t.Error("accepted zero assoc")
	}
	if _, err := New(3000, 8, 64); err == nil {
		t.Error("accepted non-power-of-two sets")
	}
	if _, err := New(8<<20, 8, 64); err != nil {
		t.Errorf("rejected Table 3 geometry: %v", err)
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := MustNew(1<<16, 4, 64)
	if r := c.Access(0x1000, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Error("second access missed")
	}
	if r := c.Access(0x1004, false); !r.Hit {
		t.Error("same-block access missed")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
	// Block 0 has tag 0, the tag every never-filled way holds: only the
	// way's zero stamp marks it invalid.
	if r := MustNew(1<<16, 4, 64).Access(0, false); r.Hit {
		t.Error("cold access to block 0 hit an empty way")
	}
}

func TestLRUEviction(t *testing.T) {
	// 4-way cache; fill a set with 4 blocks, touch the first again, then
	// insert a fifth: the evicted block must be the least recently used
	// (the second).
	c := MustNew(4*64, 4, 64) // one set, 4 ways
	addrs := []uint64{0, 64, 128, 192}
	for _, a := range addrs {
		c.Access(a, false)
	}
	c.Access(0, false)   // 0 is now MRU
	c.Access(256, false) // evicts 64
	if r := c.Access(0, false); !r.Hit {
		t.Error("MRU block evicted")
	}
	if r := c.Access(64, false); r.Hit {
		t.Error("LRU block survived")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := MustNew(2*64, 2, 64) // one set, 2 ways
	c.Access(0, true)         // dirty
	c.Access(64, false)
	r := c.Access(128, false) // evicts block 0 (LRU, dirty)
	if !r.WB || r.Writeback != 0 {
		t.Errorf("expected writeback of addr 0, got %+v", r)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats.Writebacks)
	}
	// Clean evictions produce no writeback.
	r = c.Access(192, false) // evicts 64 (clean)
	if r.WB {
		t.Errorf("clean eviction wrote back: %+v", r)
	}
}

func TestHitRate(t *testing.T) {
	c := MustNew(1<<16, 4, 64)
	c.Access(0, false)
	c.Access(0, false)
	if hr := c.HitRate(); hr != 0.5 {
		t.Errorf("HitRate = %f, want 0.5", hr)
	}
}

func TestRepeatedWorkingSetAlwaysHits(t *testing.T) {
	// A working set smaller than the cache must have a 100% steady-state
	// hit rate regardless of access order.
	c := MustNew(1<<16, 8, 64) // 64KB
	f := func(seq []uint16) bool {
		for _, s := range seq {
			c.Access(uint64(s&0x3FFF)&^63, false) // 16KB working set
		}
		// Second pass over the same addresses must all hit.
		for _, s := range seq {
			before := c.Stats.Misses
			c.Access(uint64(s&0x3FFF)&^63, false)
			if c.Stats.Misses != before {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
