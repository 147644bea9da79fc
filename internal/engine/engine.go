// Package engine is the parallel experiment engine behind the paper's
// performance sweeps (Figs. 9-16). Every sweep decomposes into cells —
// one deterministic simulation each, addressed by a content key that
// encodes everything the simulation depends on — and the engine executes
// them on a bounded worker pool. Because each cell derives its seeds from
// its own content, a parallel run is bit-identical to a serial run
// regardless of scheduling order.
//
// The engine owns four layers of reuse on top of the pool:
//
//   - batch dedup: duplicate keys submitted in one Run execute once;
//   - cross-request singleflight: concurrent Run batches (e.g. two
//     service clients asking overlapping questions) that need the same
//     cold cell trigger exactly one simulation — late arrivals wait for
//     the in-flight computation instead of repeating it;
//   - an in-memory content-keyed cache, so an engine shared across sweep
//     points (capacities, NRH values, channel counts) never repeats a
//     cell — this subsumes the alone-IPC memoization the sweeps used to
//     hand-roll;
//   - an optional content-addressed result store (ResultDir): sharded
//     directories of JSON cells written atomically via temp-file +
//     rename, indexed once at startup, so re-running a sweep after a
//     crash, or with one new policy, only simulates the delta.
//
// A missing key runs its cell once, on its own compute token: one cell,
// one run, whatever else the batch holds.
//
// Run takes a context: cancellation (a disconnected client, a server
// shutting down) stops dispatch, interrupts in-flight cells whose Run
// honors the context, and returns ctx.Err(). Cancellation never corrupts
// the store — cells either persisted completely before the cancel or not
// at all.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hira/internal/fault"
	"hira/internal/telemetry"
)

// Cell is one addressable, schedulable, memoizable unit of work.
type Cell[R any] struct {
	// Key is the cell's content key: it must encode every input the
	// computation depends on (configuration, policy, workload, seeds,
	// tick counts), because equal keys share one result.
	Key string
	// Run computes the cell's result. It must be deterministic given Key
	// and must not share mutable state with other cells. Long runs should
	// poll ctx and return ctx.Err() to honor cancellation promptly; a
	// failed or cancelled run's result is discarded, never cached or
	// stored.
	Run func(ctx context.Context) (R, error)
}

// Stats tallies how an engine resolved the cells submitted to it. For
// batches that complete without error, Submitted = Simulated +
// CacheHits + StoreHits + Deduped; an aborted or cancelled batch leaves
// its unresolved cells counted in Submitted only. Cells served by
// waiting on another batch's in-flight computation count as CacheHits.
type Stats struct {
	Submitted   uint64 `json:"submitted"`    // cells passed to Run batches
	Simulated   uint64 `json:"simulated"`    // cells actually computed
	CacheHits   uint64 `json:"cache_hits"`   // served from the in-memory cache (or an in-flight computation)
	StoreHits   uint64 `json:"store_hits"`   // loaded from the ResultDir store
	Deduped     uint64 `json:"deduped"`      // duplicate keys within a batch
	StoreErrors uint64 `json:"store_errors"` // results that could not be persisted to ResultDir

	// Resumed counts the subset of Simulated cells that restored a
	// checkpoint instead of simulating from tick zero, and ResumedTicks
	// sums the ticks those checkpoints spared — the cells were partially
	// resumed, not fully simulated. Cells report this through
	// MarkResumed.
	Resumed      uint64 `json:"resumed"`
	ResumedTicks uint64 `json:"resumed_ticks"`

	// PlannedPasses and PlannedCells are always zero: every cell runs on
	// its own. They stay so the engine_stats encoding and the code that
	// reads them keep working.
	PlannedPasses uint64 `json:"planned_passes"`
	PlannedCells  uint64 `json:"planned_cells"`
	// SimulatedTicks accumulates ticks actually stepped by simulated
	// cells (reported via MarkSimulated); together with ResumedTicks it
	// prices what checkpoints saved.
	SimulatedTicks uint64 `json:"simulated_ticks"`

	// Panics counts cells whose Run panicked. The engine converts each
	// panic into an ordinary error carrying the stack trace — the batch
	// fails, the process survives — and tallies it here so a
	// recovered-from bug is still visible on /metrics.
	Panics uint64 `json:"panics,omitempty"`

	// FirstStoreError describes the first ResultDir write failure, so
	// callers can report why persistence degraded (permissions, full
	// disk, ...), not just that it did.
	FirstStoreError string `json:"first_store_error,omitempty"`
}

// Add accumulates another tally into s.
func (s *Stats) Add(o Stats) {
	s.Submitted += o.Submitted
	s.Simulated += o.Simulated
	s.CacheHits += o.CacheHits
	s.StoreHits += o.StoreHits
	s.Deduped += o.Deduped
	s.StoreErrors += o.StoreErrors
	s.Resumed += o.Resumed
	s.ResumedTicks += o.ResumedTicks
	s.SimulatedTicks += o.SimulatedTicks
	s.Panics += o.Panics
	if s.FirstStoreError == "" {
		s.FirstStoreError = o.FirstStoreError
	}
}

// resumeNoteKey carries the per-cell resume note through the context
// handed to Cell.Run.
type resumeNoteKey struct{}

// resumeNote is written by the cell (via MarkResumed and MarkSimulated)
// and read by the engine after Run returns; the cell runs synchronously
// on one goroutine, so no synchronization is needed.
type resumeNote struct {
	resumed   bool
	ticks     int
	simulated uint64
}

// MarkResumed records that the cell computation running under ctx
// restored a checkpoint covering the first `ticks` simulated ticks
// instead of starting cold. The engine tallies it in Stats.Resumed /
// Stats.ResumedTicks so operators can see sweeps being answered by
// incremental simulation. Outside an engine-run cell it is a no-op.
func MarkResumed(ctx context.Context, ticks int) {
	if n, ok := ctx.Value(resumeNoteKey{}).(*resumeNote); ok {
		n.resumed = true
		n.ticks = ticks
	}
}

// MarkSimulated accumulates `ticks` ticks actually stepped by the cell
// computation running under ctx, tallied in Stats.SimulatedTicks.
// Outside an engine-run cell it is a no-op.
func MarkSimulated(ctx context.Context, ticks int) {
	if n, ok := ctx.Value(resumeNoteKey{}).(*resumeNote); ok && ticks > 0 {
		n.simulated += uint64(ticks)
	}
}

// Options configures an engine.
type Options struct {
	// Parallelism bounds the number of cells computing at once; <= 0
	// means runtime.NumCPU(). The bound is engine-wide: concurrent Run
	// batches share it rather than multiplying it.
	Parallelism int
	// ResultDir, when non-empty, persists each cell's result as a JSON
	// file named by the SHA-256 of its key (sharded by the first two hex
	// digits), and serves matching cells from disk on later runs. The
	// directory is created if missing and indexed once at construction.
	// Store writes are best-effort: a failed write (disk full,
	// permissions) never discards the computed result — the cell stays
	// in the in-memory cache and the failure is tallied in
	// Stats.StoreErrors / Stats.FirstStoreError.
	ResultDir string
	// FS, when non-nil, routes the result store's file I/O through a
	// fault-injection seam (see internal/fault). nil means the real
	// filesystem; production code never sets it.
	FS fault.FS
	// Metrics, when non-nil, receives the engine's duration and
	// singleflight observations (see Metrics). Count-style tallies stay
	// in Stats; expose those via RegisterStatsFuncs.
	Metrics *Metrics
}

// RunOptions configures one Run batch on a shared engine.
type RunOptions struct {
	// OnProgress, when set, is called as the batch's keys resolve, with
	// the number of positions resolved so far, the batch size and a
	// snapshot of the batch's resolution tally, so streaming consumers
	// can report cache hits and resumed ticks while the batch is still
	// running. It runs on worker goroutines, never concurrently within
	// one batch.
	OnProgress func(done, total int, batch Stats)
}

// flight is one in-progress cell computation other batches can wait on.
type flight[R any] struct {
	done chan struct{} // closed when r/err are set
	r    R
	err  error
}

// Engine executes cells on a bounded worker pool with a content-keyed
// result cache. It is safe for concurrent use: overlapping Run batches
// share the in-memory cache, the result store, the compute bound, and
// in-flight computations. The zero value is not usable; construct with
// New.
type Engine[R any] struct {
	opts  Options
	store *store[R]     // nil when ResultDir is empty
	sem   chan struct{} // engine-wide compute tokens

	mu       sync.Mutex
	cache    map[string]*cached[R]
	inflight map[string]*flight[R]
	stats    Stats
}

// New returns an engine for results of type R.
func New[R any](opts Options) *Engine[R] {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.NumCPU()
	}
	e := &Engine[R]{
		opts:     opts,
		sem:      make(chan struct{}, opts.Parallelism),
		cache:    make(map[string]*cached[R]),
		inflight: make(map[string]*flight[R]),
	}
	if opts.ResultDir != "" {
		e.store = newStore[R](opts.ResultDir, opts.FS)
	}
	return e
}

// Parallelism reports the engine-wide compute bound.
func (e *Engine[R]) Parallelism() int { return e.opts.Parallelism }

// Stats returns a snapshot of the engine's lifetime resolution tallies,
// accumulated across every batch run on it.
func (e *Engine[R]) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// StoredCells reports how many cell results the on-disk store currently
// indexes (0 without a ResultDir).
func (e *Engine[R]) StoredCells() int {
	if e.store == nil {
		return 0
	}
	return e.store.Len()
}

// StoreDegraded reports whether the result store has flipped into
// cache-only mode (unwritable root at construction, or a run of
// consecutive save failures mid-flight), and why. Always false without
// a ResultDir: an intentionally memory-only engine is not degraded.
func (e *Engine[R]) StoreDegraded() (string, bool) {
	if e.store == nil {
		return "", false
	}
	return e.store.degradedReason()
}

// Batch is a Run batch the engine resolves key first: it renders each
// position's content key into a reused buffer and looks the key up
// before it asks for the cell, so a position the cache (or an earlier
// duplicate) answers never has a cell built — no key string or
// closure.
type Batch[R any] interface {
	// Len is the number of positions in the batch.
	Len() int
	// AppendKey appends position i's content key to dst and returns the
	// extended buffer. The bytes must equal Cell(i).Key.
	AppendKey(dst []byte, i int) []byte
	// Cell builds position i's cell. The engine calls it only for the
	// first position of each key the cache does not hold.
	Cell(i int) Cell[R]
}

// Run resolves every position of cells and returns results in
// submission order, plus this batch's resolution tally. Duplicate keys
// within the batch compute once; previously resolved keys are served
// from the cache (or the ResultDir store) without running; keys another
// concurrent batch is already computing are waited on, not recomputed.
// The first cell error aborts the batch; ctx cancellation aborts it with
// ctx.Err().
func (e *Engine[R]) Run(ctx context.Context, cells Batch[R]) ([]R, Stats, error) {
	return e.RunWith(ctx, cells, RunOptions{})
}

// RunWith is Run with per-batch options.
func (e *Engine[R]) RunWith(ctx context.Context, cells Batch[R], ropts RunOptions) ([]R, Stats, error) {
	n := cells.Len()
	b := &batch[R]{
		results:    make([]R, n),
		next:       make([]int, n),
		slots:      make([]slot, 0, n),
		onProgress: ropts.OnProgress,
	}

	// Collapse the batch to unique keys, key first: each position's key
	// is rendered into one reused buffer and looked up in the cache
	// through a string(buf) conversion, which does not allocate. A hit
	// adopts the cache entry, and a repeat of it is found by the entry's
	// address; only a miss has its Cell built, and its key string is the
	// cell's. A batch cancelled before it starts serves nothing from the
	// cache.
	probe := ctx.Err() == nil
	var hitSlot map[*cached[R]]int // cache entry -> slot
	var missSlot map[string]int    // key -> slot
	var hits []*cached[R]          // per slot; nil for a miss
	var pending []int              // miss slots, first-appearance order
	var buf []byte
	for i := 0; i < n; i++ {
		buf = cells.AppendKey(buf[:0], i)
		var hit *cached[R]
		if probe {
			e.mu.Lock()
			hit = e.cache[string(buf)]
			e.mu.Unlock()
		}
		s, dup := -1, false
		if hit != nil {
			s, dup = hitSlot[hit]
			if !dup && len(missSlot) > 0 {
				// An earlier position missed this key, and another
				// batch has cached it since.
				s, dup = missSlot[hit.key]
			}
		} else {
			s, dup = missSlot[string(buf)]
		}
		b.next[i] = -1
		if dup {
			sl := &b.slots[s]
			b.next[sl.tail], sl.tail = i, i
			sl.n++
			continue
		}
		sl := slot{head: i, tail: i, n: 1, cell: -1}
		if hit != nil {
			if hitSlot == nil {
				hitSlot = make(map[*cached[R]]int, n)
			}
			sl.key = hit.key
			hitSlot[hit] = len(b.slots)
		} else {
			c := cells.Cell(i)
			if c.Run == nil {
				return nil, Stats{}, fmt.Errorf("engine: cell %d (%q) has no Run", i, c.Key)
			}
			if c.Key != string(buf) {
				return nil, Stats{}, fmt.Errorf("engine: cell %d key %q differs from its rendered key %q", i, c.Key, buf)
			}
			if missSlot == nil {
				missSlot = make(map[string]int)
			}
			sl.key, sl.cell = c.Key, len(b.cells)
			missSlot[c.Key] = len(b.slots)
			b.cells = append(b.cells, c)
			pending = append(pending, len(b.slots))
		}
		hits = append(hits, hit)
		b.slots = append(b.slots, sl)
	}
	b.stats.Submitted = uint64(n)
	b.stats.Deduped = uint64(n - len(b.slots))

	// Serve the hits up front, so only misses reach the worker pool, and
	// a batch where every key hits starts no workers. Each hit is tallied
	// and reported exactly as resolve would: one CacheHits and one
	// progress callback per key.
	for s, hit := range hits {
		if hit != nil {
			b.bump(func(st *Stats) { st.CacheHits++ })
			b.serve(s, &hit.r)
		}
	}

	workers := min(e.opts.Parallelism, len(pending))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				if !b.abortedOrDone(ctx) {
					e.resolve(ctx, s, b)
				}
			}
		}()
	}
dispatch:
	for _, s := range pending {
		select {
		case jobs <- s:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	b.mu.Lock()
	err := b.firstErr
	stats := b.stats
	b.mu.Unlock()
	if err == nil {
		err = ctx.Err()
	}

	e.mu.Lock()
	e.stats.Add(stats)
	e.mu.Unlock()

	if err != nil {
		return nil, stats, err
	}
	return b.results, stats, nil
}

// cached is one in-memory cache entry. It keeps the key string it is
// stored under, so a batch that looked the key up through a scratch
// buffer adopts this string instead of allocating its own. Entries are
// never replaced, so an entry's address identifies its key.
type cached[R any] struct {
	key string
	r   R
}

// slot is one unique key of a batch. The positions it fills are chained
// through batch.next from head to tail.
type slot struct {
	key        string
	head, tail int
	n          int // positions
	cell       int // index into batch.cells; -1 for a cache hit
}

// batch carries one Run invocation's state. results, next, slots and
// cells are fixed before any worker starts (workers write only the
// result positions of the keys they resolve); the rest is guarded by mu.
type batch[R any] struct {
	results []R
	next    []int // next position of the same key; -1 ends the chain
	slots   []slot
	cells   []Cell[R] // built for keys the cache did not hold

	onProgress func(done, total int, batch Stats)

	mu       sync.Mutex
	stats    Stats
	firstErr error
	done     int // progress counter
}

// cell is slot s's built cell.
func (b *batch[R]) cell(s int) *Cell[R] { return &b.cells[b.slots[s].cell] }

// serve fills every position of slot s with *r and reports them as one
// progress step.
func (b *batch[R]) serve(s int, r *R) {
	sl := &b.slots[s]
	for p := sl.head; p >= 0; p = b.next[p] {
		b.results[p] = *r
	}
	if b.onProgress == nil {
		return
	}
	b.mu.Lock()
	b.done += sl.n
	b.onProgress(b.done, len(b.results), b.stats)
	b.mu.Unlock()
}

func (b *batch[R]) fail(err error) {
	b.mu.Lock()
	if b.firstErr == nil {
		b.firstErr = err
	}
	b.mu.Unlock()
}

func (b *batch[R]) abortedOrDone(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.firstErr != nil
}

func (b *batch[R]) bump(f func(*Stats)) {
	b.mu.Lock()
	f(&b.stats)
	b.mu.Unlock()
}

// resolve resolves slot s's key: from the cache, by waiting on another
// batch's in-flight computation of it (served as a cache hit), or by
// claiming the key and running its cell. When the awaited batch failed
// or was cancelled, its error is not ours: the key is looked up again.
func (e *Engine[R]) resolve(ctx context.Context, s int, b *batch[R]) {
	key := b.slots[s].key
	for {
		e.mu.Lock()
		if c, ok := e.cache[key]; ok {
			e.mu.Unlock()
			b.bump(func(st *Stats) { st.CacheHits++ })
			b.serve(s, &c.r)
			return
		}
		f, wait := e.inflight[key]
		if !wait {
			f = &flight[R]{done: make(chan struct{})}
			e.inflight[key] = f
		}
		e.mu.Unlock()
		if !wait {
			e.run(ctx, s, f, b)
			return
		}

		if m := e.opts.Metrics; m != nil {
			m.SingleflightWaits.Inc()
		}
		sp := telemetry.StartSpan(ctx, "singleflight-wait", key)
		select {
		case <-f.done:
			sp.End()
			if f.err == nil {
				b.bump(func(st *Stats) { st.CacheHits++ })
				b.serve(s, &f.r)
				return
			}
		case <-ctx.Done():
			sp.End()
			b.fail(ctx.Err())
			return
		}
	}
}

// release settles a claimed key: a successful result enters the cache,
// and the flight is closed so singleflight waiters observe r or err.
func (e *Engine[R]) release(key string, f *flight[R], r R, err error) {
	f.r, f.err = r, err
	e.mu.Lock()
	if err == nil {
		e.cache[key] = &cached[R]{key: key, r: r}
	}
	delete(e.inflight, key)
	e.mu.Unlock()
	close(f.done)
}

// run resolves slot s, whose key's flight f the caller has claimed. It
// is the engine's only executor: a key the store holds is served from
// disk; otherwise run takes a compute token, runs the cell with panics
// recovered, tallies it and persists the result under that token (so
// the cell span and CellSeconds cover the store write), then releases
// the key and only then serves the batch's positions, so a progress
// callback sees the cell's whole tally. A failed or cancelled cell releases its
// flight with the error and fails the batch.
func (e *Engine[R]) run(ctx context.Context, s int, f *flight[R], b *batch[R]) {
	key := b.slots[s].key
	if e.store != nil {
		sp := telemetry.StartSpan(ctx, "store-read", key)
		r, ok := e.store.load(key)
		sp.SetAttr("hit", ok)
		sp.End()
		if ok {
			e.release(key, f, r, nil)
			b.bump(func(st *Stats) { st.StoreHits++ })
			b.serve(s, &r)
			return
		}
	}
	fail := func(err error) {
		var zero R
		e.release(key, f, zero, err)
		b.fail(err)
	}

	m := e.opts.Metrics
	semStart := time.Now()
	semSpan := telemetry.StartSpan(ctx, "sem-wait", key)
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		semSpan.End()
		fail(ctx.Err())
		return
	}
	semSpan.End()
	if m != nil {
		m.SemWaitSeconds.Observe(time.Since(semStart).Seconds())
	}

	note := &resumeNote{}
	runStart := time.Now()
	runSpan := telemetry.StartSpan(ctx, "cell", key)
	// A panicking cell must not take down the worker pool (and with it
	// the whole server): convert the panic into an ordinary error
	// carrying the stack, so exactly this batch fails, attributably.
	r, err := func() (r R, err error) {
		defer func() {
			if p := recover(); p != nil {
				b.bump(func(st *Stats) { st.Panics++ })
				err = fmt.Errorf("engine: cell %q panicked: %v\n%s", key, p, debug.Stack())
			}
		}()
		return b.cell(s).Run(context.WithValue(ctx, resumeNoteKey{}, note))
	}()
	if err == nil {
		b.bump(func(st *Stats) {
			st.Simulated++
			st.SimulatedTicks += note.simulated
			if note.resumed {
				st.Resumed++
				st.ResumedTicks += uint64(note.ticks)
			}
		})
		if e.store != nil {
			e.saveResult(ctx, key, r, b)
		}
	}
	if note.resumed {
		runSpan.SetAttr("resumed_ticks", note.ticks)
	}
	runSpan.End()
	<-e.sem
	if err != nil {
		fail(err)
		return
	}
	if m != nil {
		m.CellSeconds.Observe(time.Since(runStart).Seconds())
	}
	e.release(key, f, r, nil)
	b.serve(s, &r)
}

// saveResult persists one result to the store, best-effort: a failed
// write (disk full, permissions) never discards the computed result —
// the cell stays in the in-memory cache and the failure is tallied.
func (e *Engine[R]) saveResult(ctx context.Context, key string, r R, b *batch[R]) {
	m := e.opts.Metrics
	wrSpan := telemetry.StartSpan(ctx, "store-write", key)
	wrStart := time.Now()
	_, err := e.store.save(key, r)
	if m != nil {
		m.StoreWriteSeconds.Observe(time.Since(wrStart).Seconds())
	}
	wrSpan.End()
	if err != nil {
		b.bump(func(s *Stats) {
			s.StoreErrors++
			if s.FirstStoreError == "" {
				s.FirstStoreError = err.Error()
			}
		})
	}
}
