package cpu

import (
	"testing"

	"hira/internal/workload"
)

// fakeMemory completes loads after a fixed number of Deliver calls.
type fakeMemory struct {
	latency  int
	inflight []fakeReq
	accept   bool
	issued   int
}

type fakeReq struct {
	token uint64
	left  int
	write bool
}

func (m *fakeMemory) Issue(req MemRequest) bool {
	if !m.accept {
		return false
	}
	m.issued++
	if !req.Write {
		m.inflight = append(m.inflight, fakeReq{token: req.Token, left: m.latency})
	}
	return true
}

// step advances fake memory one cycle, completing due loads on the core.
func (m *fakeMemory) step(c *Core) {
	kept := m.inflight[:0]
	for _, r := range m.inflight {
		r.left--
		if r.left <= 0 {
			c.Complete(r.token)
		} else {
			kept = append(kept, r)
		}
	}
	m.inflight = kept
}

func gen(name string, seed uint64) *workload.Generator {
	p, err := workload.ProfileByName(name)
	if err != nil {
		panic(err)
	}
	return workload.NewGenerator(p, seed)
}

func TestCoreRetiresWithFastMemory(t *testing.T) {
	mem := &fakeMemory{latency: 1, accept: true}
	c := New(0, gen("hmmer", 1), mem)
	for i := 0; i < 1000; i++ {
		c.Tick(4)
		mem.step(c)
	}
	ipc := c.IPC(1000)
	if ipc < 3 {
		t.Errorf("IPC = %.2f with near-ideal memory, want near 4", ipc)
	}
}

func TestCoreStallsWithSlowMemory(t *testing.T) {
	run := func(latency int) float64 {
		mem := &fakeMemory{latency: latency, accept: true}
		c := New(0, gen("mcf", 1), mem)
		for i := 0; i < 2000; i++ {
			c.Tick(4)
			mem.step(c)
		}
		return c.IPC(2000)
	}
	fast, slow := run(2), run(200)
	if slow >= fast {
		t.Errorf("IPC did not degrade with memory latency: fast=%.3f slow=%.3f", fast, slow)
	}
	if slow > 1.0 {
		t.Errorf("mcf at 200-cycle latency has IPC %.3f, implausibly high", slow)
	}
}

func TestCoreWindowLimitsMLP(t *testing.T) {
	// With memory that never completes, the core must issue at most one
	// window's worth of instructions and then stall forever.
	mem := &fakeMemory{latency: 1 << 30, accept: true}
	c := New(0, gen("mcf", 1), mem)
	for i := 0; i < 10000; i++ {
		c.Tick(4)
	}
	// The window is relative to the oldest incomplete load: no more than
	// Window instructions may be in flight past it.
	if c.issued-c.windowHead() > uint64(c.Window) {
		t.Errorf("%d instructions in flight past a dead miss, window is %d",
			c.issued-c.windowHead(), c.Window)
	}
	if c.Retired != 0 && c.Retired >= c.issued {
		t.Errorf("retired %d with no completions", c.Retired)
	}
}

func TestCoreRetriesWhenQueueFull(t *testing.T) {
	mem := &fakeMemory{latency: 1, accept: false}
	c := New(0, gen("mcf", 1), mem)
	for i := 0; i < 100; i++ {
		c.Tick(4)
	}
	if mem.issued != 0 {
		t.Fatalf("issued %d requests while memory rejected all", mem.issued)
	}
	// Accepting again lets the core make progress.
	mem.accept = true
	before := c.issued
	for i := 0; i < 100; i++ {
		c.Tick(4)
		mem.step(c)
	}
	if c.issued <= before {
		t.Error("core did not recover after queue drained")
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	// A write-heavy profile with memory that accepts but never completes
	// anything: stores must retire (write buffer), so retirement only
	// blocks on loads.
	mem := &fakeMemory{latency: 1 << 30, accept: true}
	c := New(0, gen("lbm", 1), mem) // 45% writes
	for i := 0; i < 10000; i++ {
		c.Tick(4)
	}
	if c.StoresIssued == 0 {
		t.Fatal("no stores issued")
	}
	// The core stalls on the first load, but everything before it,
	// including stores, retired.
	if c.Retired == 0 {
		t.Error("nothing retired; stores should not block")
	}
}

func TestCoreMLPOverlapsIndependentMisses(t *testing.T) {
	// Two cores with identical traces, one with memory that can overlap
	// (latency L for all) and one serialized: the windowed model must
	// show MLP, i.e. IPC(L) >> IPC(serialized) for an intense workload.
	mem := &fakeMemory{latency: 50, accept: true}
	c := New(0, gen("mcf", 3), mem)
	for i := 0; i < 5000; i++ {
		c.Tick(4)
		mem.step(c)
	}
	withMLP := c.IPC(5000)

	// Serialized memory: one outstanding at a time.
	ser := &serialMemory{latency: 50}
	c2 := New(0, gen("mcf", 3), ser)
	for i := 0; i < 5000; i++ {
		c2.Tick(4)
		ser.step(c2)
	}
	serial := c2.IPC(5000)
	if withMLP <= serial {
		t.Errorf("no MLP benefit: overlapped %.3f vs serial %.3f", withMLP, serial)
	}
}

// syncMemory completes some loads synchronously, from inside Issue —
// the shape of an LLC hit in the full-system model, where the hit is
// resolved before Issue returns and the completion therefore arrives
// before the core has entered the load into its window.
type syncMemory struct {
	c        *Core
	every    int // complete every Nth load synchronously; others async
	n        int
	inflight []fakeReq
}

func (m *syncMemory) Issue(req MemRequest) bool {
	if req.Write {
		return true
	}
	m.n++
	if m.n%m.every == 0 {
		m.c.Complete(req.Token)
		return true
	}
	m.inflight = append(m.inflight, fakeReq{token: req.Token, left: 20})
	return true
}

func (m *syncMemory) step() {
	kept := m.inflight[:0]
	for _, r := range m.inflight {
		r.left--
		if r.left <= 0 {
			m.c.Complete(r.token)
		} else {
			kept = append(kept, r)
		}
	}
	m.inflight = kept
}

// TestCoreSynchronousCompletion is the regression test for a deadlock
// the adversarial hammering workloads flushed out: a load completed
// inside Memory.Issue (an LLC hit) arrived before Tick appended the
// window entry, the completion was dropped, and the stale entry pinned
// the window head until the core wedged permanently. Small-footprint
// attack loops re-touch lines whose miss is still in flight, so they
// hit this deterministically; wide benign streams almost never did.
func TestCoreSynchronousCompletion(t *testing.T) {
	for _, every := range []int{1, 3} {
		mem := &syncMemory{every: every}
		c := New(0, gen("mcf", 1), mem)
		mem.c = c
		for i := 0; i < 5000; i++ {
			c.Tick(4)
			mem.step()
		}
		if c.Blocked() && len(mem.inflight) == 0 {
			t.Errorf("every=%d: core wedged with no loads in flight (lost a synchronous completion)", every)
		}
		if c.Retired < 1000 {
			t.Errorf("every=%d: retired only %d instructions in 5000 ticks", every, c.Retired)
		}
	}
}

type serialMemory struct {
	latency int
	busy    bool
	left    int
	token   uint64
}

func (m *serialMemory) Issue(req MemRequest) bool {
	if req.Write {
		return true
	}
	if m.busy {
		return false
	}
	m.busy = true
	m.left = m.latency
	m.token = req.Token
	return true
}

func (m *serialMemory) step(c *Core) {
	if !m.busy {
		return
	}
	m.left--
	if m.left <= 0 {
		c.Complete(m.token)
		m.busy = false
	}
}

// TestSkipSumEqualsPerTickSkips: over a window IdleTicks proves
// memory-inert, one Skip of the window's summed slot budget leaves the
// core exactly as one Skip per tick does — for a blocked core, a core
// whose window head is pinned by an outstanding load, and an unpinned
// core whose window issues far more than the 128-entry window (an
// unpinned window retires as it issues, so only a pinned head caps
// issue).
func TestSkipSumEqualsPerTickSkips(t *testing.T) {
	const maxSlots = 11 // per-tick budgets below alternate 10 and 11
	cases := []struct {
		name  string
		build func() *Core
		ticks int // 0: IdleTicks' bound
	}{
		{"unpinned long gap", func() *Core {
			c := New(0, gen("mcf", 1), &fakeMemory{})
			c.issued, c.gapLeft, c.hasPending = 400, 1000, true
			return c
		}, 0},
		{"pinned head", func() *Core {
			c := New(0, gen("mcf", 1), &fakeMemory{})
			c.issued, c.gapLeft, c.hasPending = 400, 500, true
			c.outstanding = []outstandingLoad{{pos: 390, token: 1}}
			return c
		}, 0},
		{"blocked", func() *Core {
			c := New(0, gen("mcf", 1), &fakeMemory{})
			c.issued, c.gapLeft, c.hasPending = 400, 500, true
			c.outstanding = []outstandingLoad{{pos: 400 - 128, token: 1}}
			return c
		}, 50},
	}
	for _, tc := range cases {
		perTick, summed := tc.build(), tc.build()
		k := tc.ticks
		if k == 0 {
			k = perTick.IdleTicks(maxSlots)
		}
		total := 0
		for j := 0; j < k; j++ {
			slots := 10 + j%2
			perTick.Skip(slots)
			total += slots
		}
		summed.Skip(total)
		if tc.name == "unpinned long gap" && total <= 128 {
			t.Fatalf("%s: window issues %d slots, want more than the window", tc.name, total)
		}
		if perTick.issued != summed.issued || perTick.gapLeft != summed.gapLeft ||
			perTick.Retired != summed.Retired || perTick.StallCycles != summed.StallCycles {
			t.Errorf("%s over %d ticks (%d slots): per-tick (issued %d, gap %d, retired %d, stall %v), summed (%d, %d, %d, %v)",
				tc.name, k, total, perTick.issued, perTick.gapLeft, perTick.Retired, perTick.StallCycles,
				summed.issued, summed.gapLeft, summed.Retired, summed.StallCycles)
		}
	}
}
