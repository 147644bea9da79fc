// Package cpu models the processor front end of the simulated system
// (Table 3: 3.2 GHz, 4-wide issue, 128-entry instruction window per core).
//
// The model is the standard trace-driven approximation used by
// memory-system simulators: instructions issue in order at up to
// Width per cycle; a load miss does not stall issue until it reaches the
// head of the instruction window, so independent misses within the window
// overlap (memory-level parallelism); stores retire through a write
// buffer without blocking.
package cpu

import (
	"math"

	"hira/internal/workload"
)

// MemRequest is a memory request a core asks the memory system to
// perform.
type MemRequest struct {
	Addr  uint64
	Write bool
	Core  int
	// Token identifies the request in Complete callbacks.
	Token uint64
}

// Memory is the interface the core issues requests through. Issue returns
// false when the memory system cannot accept the request this cycle (queue
// full); the core retries.
type Memory interface {
	Issue(req MemRequest) bool
}

// Core is one simulated processor core fed by a workload access stream
// (a synthetic generator or a recorded trace player).
type Core struct {
	ID     int
	Width  int // issue width per core cycle (4)
	Window int // instruction window size (128)

	gen workload.Stream
	mem Memory

	// Issue-side state.
	issued  uint64 // instructions entered into the window
	gapLeft int    // non-memory instructions before the next access
	// pending is the next access, drawn from gen once the previous one
	// issued; hasPending marks it valid. Held by value so drawing an
	// access never allocates.
	pending    workload.Access
	hasPending bool
	token      uint64

	// Outstanding loads, in program order: instruction positions of
	// misses whose data has not returned. The slice is a head-indexed
	// ring so retiring from the front neither allocates nor leaks the
	// backing array.
	outstanding []outstandingLoad
	outHead     int

	// earlyDone records a load completed synchronously inside
	// Memory.Issue — e.g. a cache hit resolved before Issue returns —
	// which arrives before Tick has entered the load into the window.
	// Without it the completion is silently lost, the stale window entry
	// never retires, and the core deadlocks once the window fills behind
	// it. Transient: set during the Issue call, consumed immediately
	// after in the same Tick iteration, zero between ticks (so it never
	// enters snapshots).
	earlyDone uint64

	// Retired counts completed instructions (the IPC numerator).
	Retired uint64

	// Stats.
	LoadsIssued, StoresIssued uint64
	StallCycles               float64
}

type outstandingLoad struct {
	pos   uint64
	token uint64
	done  bool
}

// New returns a core reading from gen and issuing to mem.
func New(id int, gen workload.Stream, mem Memory) *Core {
	return &Core{ID: id, Width: 4, Window: 128, gen: gen, mem: mem}
}

// Complete signals that the load identified by token has its data. A
// completion may arrive synchronously, from inside the Memory.Issue
// call that submitted the load: at that point the load is not yet in
// the window, so it is recorded in earlyDone for Tick to consume.
func (c *Core) Complete(token uint64) {
	found := false
	for i := c.outHead; i < len(c.outstanding); i++ {
		if c.outstanding[i].token == token {
			c.outstanding[i].done = true
			found = true
			break
		}
	}
	if !found && token == c.token {
		c.earlyDone = token
	}
	// Retire completed loads from the head.
	for c.outHead < len(c.outstanding) && c.outstanding[c.outHead].done {
		c.outHead++
	}
	if c.outHead == len(c.outstanding) {
		c.outstanding = c.outstanding[:0]
		c.outHead = 0
	} else if c.outHead > len(c.outstanding)/2 && c.outHead >= 64 {
		n := copy(c.outstanding, c.outstanding[c.outHead:])
		c.outstanding = c.outstanding[:n]
		c.outHead = 0
	}
}

// windowHead returns the instruction position of the oldest incomplete
// load, or issued if none (no retirement blockage).
func (c *Core) windowHead() uint64 {
	if c.outHead == len(c.outstanding) {
		return c.issued
	}
	return c.outstanding[c.outHead].pos
}

// Tick advances the core by budget instruction slots (width x core cycles
// for the elapsed wall time) and updates Retired.
func (c *Core) Tick(budget float64) {
	slots := int(budget)
	for slots > 0 {
		// Window full: the oldest miss blocks issue once the window is
		// exhausted.
		if c.Blocked() {
			c.StallCycles += float64(slots)
			break
		}
		if c.gapLeft > 0 {
			n := c.gapLeft
			if n > slots {
				n = slots
			}
			// Cap issue to the window boundary.
			if room := c.room(); n > room {
				n = room
			}
			c.gapLeft -= n
			c.issued += uint64(n)
			slots -= n
			continue
		}
		if !c.hasPending {
			c.pending = c.gen.Next()
			c.hasPending = true
			c.gapLeft = c.pending.Gap
			continue
		}
		// A memory access is at the issue point.
		a := c.pending
		c.token++
		req := MemRequest{Addr: a.Addr, Write: a.Write, Core: c.ID, Token: c.token}
		if !c.mem.Issue(req) {
			// Queue full: retry next tick.
			c.StallCycles += float64(slots)
			break
		}
		if a.Write {
			c.StoresIssued++
			// Stores retire through the write buffer immediately.
		} else {
			c.LoadsIssued++
			if c.earlyDone != c.token {
				c.outstanding = append(c.outstanding, outstandingLoad{pos: c.issued, token: c.token})
			}
			// else: the load completed inside Issue (zero-latency hit);
			// it retires immediately and never pins the window head.
		}
		c.earlyDone = 0
		c.issued++
		slots--
		c.hasPending = false
	}
	// Retirement: everything up to the oldest incomplete load has
	// retired.
	c.Retired = c.windowHead()
}

// Blocked reports whether the instruction window is full behind an
// incomplete load: until a Complete arrives, Tick can only accrue stall
// cycles, so callers may account those directly and skip the call.
func (c *Core) Blocked() bool {
	return c.issued-c.windowHead() >= uint64(c.Window)
}

// room returns the instruction slots left before the window boundary.
func (c *Core) room() int {
	return int(uint64(c.Window) - (c.issued - c.windowHead()))
}

// IdleTicks returns a lower bound on how many ticks the core can advance
// without touching memory, assuming no Complete arrives in between:
// effectively unbounded while the instruction window is full (only a
// Complete unblocks it), the remaining gap length at the maximum issue
// rate while between memory accesses, zero otherwise. Callers may replay
// that many ticks with Skip instead of Tick; maxSlotsPerTick is the
// largest slot budget a single tick can deliver.
func (c *Core) IdleTicks(maxSlotsPerTick int) int {
	if c.Blocked() {
		return math.MaxInt
	}
	if c.gapLeft > 0 {
		m := c.gapLeft
		if c.outHead < len(c.outstanding) {
			// The window head is pinned: issuing shrinks the room.
			if room := c.room(); room < m {
				m = room
			}
		}
		return (m - 1) / maxSlotsPerTick
	}
	return 0
}

// Skip replays slots issue slots — one tick's budget or the summed
// budgets of a window of ticks — through a window that IdleTicks proved
// memory-inert, bit-identically to Tick: a blocked core accrues stall
// cycles, a mid-gap core issues gap instructions. Only a window head
// pinned by an outstanding load caps the issue; an unpinned window
// retires as it issues, as in Tick, so a summed budget may exceed the
// window size.
func (c *Core) Skip(slots int) {
	if c.Blocked() {
		c.StallCycles += float64(slots)
		return
	}
	n := c.gapLeft
	if n > slots {
		n = slots
	}
	if c.outHead < len(c.outstanding) {
		if room := c.room(); n > room {
			n = room
		}
	}
	c.gapLeft -= n
	c.issued += uint64(n)
	c.Retired = c.windowHead()
}

// IPC returns retired instructions per core cycle over elapsed cycles.
func (c *Core) IPC(cycles float64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(c.Retired) / cycles
}
