package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// Cells is a batch whose cells are built up front.
type Cells[R any] []Cell[R]

func (c Cells[R]) Len() int                           { return len(c) }
func (c Cells[R]) AppendKey(dst []byte, i int) []byte { return append(dst, c[i].Key...) }
func (c Cells[R]) Cell(i int) Cell[R]                 { return c[i] }

// solo builds a cell that runs alone: a one-member pass emitting run's
// result. Its group is its key, so it coalesces with no other cell.
func solo[R any](key string, run func(ctx context.Context) (R, error)) Cell[R] {
	return Cell[R]{Key: key, Plan: &Plan[R]{
		Group: key,
		RunPass: func(ctx context.Context, _ []PlanMember, emit func(int, R)) error {
			r, err := run(ctx)
			if err == nil {
				emit(0, r)
			}
			return err
		},
	}}
}

// countingCell returns a cell whose pass increments runs and returns v.
func countingCell(key string, v int, runs *atomic.Int64) Cell[int] {
	return solo(key, func(context.Context) (int, error) {
		runs.Add(1)
		return v, nil
	})
}

func TestRunPreservesOrder(t *testing.T) {
	e := New[int](Options{Parallelism: 4})
	var runs atomic.Int64
	var cells Cells[int]
	for i := 0; i < 100; i++ {
		cells = append(cells, countingCell(fmt.Sprintf("c%d", i), i*i, &runs))
	}
	got, _, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
	if runs.Load() != 100 {
		t.Errorf("ran %d cells, want 100", runs.Load())
	}
}

func TestBatchDedup(t *testing.T) {
	e := New[int](Options{Parallelism: 8})
	var runs atomic.Int64
	var cells Cells[int]
	for i := 0; i < 40; i++ {
		cells = append(cells, countingCell(fmt.Sprintf("c%d", i%4), (i%4)*10, &runs))
	}
	got, batch, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != (i%4)*10 {
			t.Fatalf("result %d = %d, want %d", i, v, (i%4)*10)
		}
	}
	if runs.Load() != 4 {
		t.Errorf("ran %d cells, want 4", runs.Load())
	}
	if batch.Submitted != 40 || batch.Simulated != 4 || batch.Deduped != 36 {
		t.Errorf("batch stats = %+v, want 40 submitted / 4 simulated / 36 deduped", batch)
	}
	if s := e.Stats(); s != batch {
		t.Errorf("engine lifetime stats %+v != sole batch stats %+v", s, batch)
	}
}

func TestCacheAcrossBatches(t *testing.T) {
	e := New[int](Options{Parallelism: 2})
	var runs atomic.Int64
	cells := Cells[int]{countingCell("a", 1, &runs), countingCell("b", 2, &runs)}
	if _, _, err := e.Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	_, warm, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Errorf("ran %d cells across two batches, want 2", runs.Load())
	}
	if warm.CacheHits != 2 || warm.Simulated != 0 {
		t.Errorf("warm batch stats = %+v, want 2 cache hits / 0 simulated", warm)
	}
	if s := e.Stats(); s.CacheHits != 2 || s.Simulated != 2 {
		t.Errorf("lifetime stats = %+v, want 2 cache hits and 2 simulated", s)
	}
}

func TestErrorAbortsBatch(t *testing.T) {
	e := New[int](Options{Parallelism: 2})
	boom := errors.New("boom")
	cells := Cells[int]{
		solo("ok", func(context.Context) (int, error) { return 1, nil }),
		solo("bad", func(context.Context) (int, error) { return 0, boom }),
	}
	if _, _, err := e.Run(context.Background(), cells); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	pass := func(context.Context, []PlanMember, func(int, int)) error { return nil }
	for _, c := range []Cell[int]{
		{Key: "no-plan"},
		{Key: "no-group", Plan: &Plan[int]{RunPass: pass}},
		{Key: "no-pass", Plan: &Plan[int]{Group: "g"}},
	} {
		if _, _, err := e.Run(context.Background(), Cells[int]{c}); err == nil {
			t.Fatalf("accepted cell %q", c.Key)
		}
	}
}

func TestFailedCellNotCached(t *testing.T) {
	e := New[int](Options{Parallelism: 1})
	calls := 0
	flaky := solo("flaky", func(context.Context) (int, error) {
		calls++
		if calls == 1 {
			return 0, errors.New("transient")
		}
		return 9, nil
	})
	if _, _, err := e.Run(context.Background(), Cells[int]{flaky}); err == nil {
		t.Fatal("first run should fail")
	}
	got, _, err := e.Run(context.Background(), Cells[int]{flaky})
	if err != nil || got[0] != 9 {
		t.Fatalf("retry after failure: got %v, err %v", got, err)
	}
}

func TestProgressReachesTotal(t *testing.T) {
	var last, calls int
	e := New[int](Options{Parallelism: 4, OnProgress: func(done, total int) {
		if done <= last || done > total {
			t.Errorf("progress went %d -> %d of %d", last, done, total)
		}
		last = done
		calls++
	}})
	var runs atomic.Int64
	var cells Cells[int]
	for i := 0; i < 9; i++ {
		cells = append(cells, countingCell(fmt.Sprintf("c%d", i%3), i%3, &runs))
	}
	if _, _, err := e.Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if last != 9 {
		t.Errorf("final progress = %d, want 9", last)
	}
	if calls != 3 {
		t.Errorf("progress calls = %d, want 3 (one per unique key)", calls)
	}
}

// progressStep is one OnProgressStats callback.
type progressStep struct {
	done, total int
	stats       Stats
}

// TestWarmPrePassMatchesPerKeyPath pins the warm pre-pass to the per-key
// resolution it short-circuits: a batch whose keys are all cached reports
// the same progress sequence (one callback per unique key, same running
// totals) and the same Stats as the cold batch that filled the cache,
// with every Simulated cell counted as a CacheHit instead, and it never
// runs a cell or a pass — nor builds one. A partly warm batch serves its
// hits first and only runs its misses; random batches of hits, misses
// and duplicates match the per-key model in results, Stats, progress
// and which cells get built.
func TestWarmPrePassMatchesPerKeyPath(t *testing.T) {
	ctx := context.Background()
	e := New[int](Options{Parallelism: 1})
	var runs atomic.Int64
	var passes atomic.Int64
	var cells Cells[int]
	for i := 0; i < 12; i++ {
		cells = append(cells, countingCell(fmt.Sprintf("c%d", i%5), i%5, &runs))
	}
	// Two planned members of one group, which a cold batch coalesces.
	for _, h := range []int{10, 20} {
		h := h
		c := countingCell(fmt.Sprintf("p%d", h), h, &runs)
		c.Plan = &Plan[int]{Group: "g", Horizon: h, RunPass: func(_ context.Context, ms []PlanMember, emit func(int, int)) error {
			passes.Add(1)
			for i, m := range ms {
				emit(i, m.Horizon)
			}
			return nil
		}}
		cells = append(cells, c)
	}
	record := func(steps *[]progressStep) RunOptions {
		return RunOptions{OnProgressStats: func(done, total int, st Stats) {
			*steps = append(*steps, progressStep{done, total, st})
		}}
	}

	var coldSteps, warmSteps []progressStep
	coldRes, cold, err := e.RunWith(ctx, cells, record(&coldSteps))
	if err != nil {
		t.Fatal(err)
	}
	if passes.Load() != 1 || runs.Load() != 5 {
		t.Fatalf("cold batch ran %d cells and %d passes, want 5 and 1", runs.Load(), passes.Load())
	}
	warmRes, warm, err := e.RunWith(ctx, cells, record(&warmSteps))
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 5 || passes.Load() != 1 {
		t.Fatalf("warm batch ran cells or passes (%d cells, %d passes in total)", runs.Load(), passes.Load())
	}
	for i := range coldRes {
		if warmRes[i] != coldRes[i] {
			t.Fatalf("result %d: warm %d, cold %d", i, warmRes[i], coldRes[i])
		}
	}

	// asHits is a per-key tally with every simulated cell served from
	// the cache instead.
	asHits := func(s Stats) Stats {
		return Stats{Submitted: s.Submitted, Deduped: s.Deduped, CacheHits: s.CacheHits + s.Simulated}
	}
	if want := asHits(cold); warm != want {
		t.Fatalf("warm stats %+v, want %+v", warm, want)
	}
	if len(warmSteps) != len(coldSteps) || len(warmSteps) != 7 {
		t.Fatalf("progress calls: warm %d, cold %d, want 7 (one per unique key)", len(warmSteps), len(coldSteps))
	}
	for i := range coldSteps {
		c, w := coldSteps[i], warmSteps[i]
		if w.done != c.done || w.total != c.total || w.stats != asHits(c.stats) {
			t.Fatalf("progress step %d: warm %+v, cold %+v", i, w, c)
		}
	}
	var lifetime Stats
	lifetime.Add(cold)
	lifetime.Add(warm)
	if got := e.Stats(); got != lifetime {
		t.Fatalf("lifetime stats %+v, want %+v", got, lifetime)
	}

	// A partly warm batch: cached keys are served up front, then the
	// misses run through the pool.
	mixed := append(Cells[int]{countingCell("new", 99, &runs)}, cells[:3]...)
	var mixedSteps []progressStep
	res, st, err := e.RunWith(ctx, mixed, record(&mixedSteps))
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 99 || runs.Load() != 6 {
		t.Fatalf("mixed batch: result %d, %d runs in total, want 99 and 6", res[0], runs.Load())
	}
	if st.CacheHits != 3 || st.Simulated != 1 || st.Submitted != 4 {
		t.Fatalf("mixed batch stats %+v, want 3 cache hits and 1 simulated of 4", st)
	}
	if len(mixedSteps) != 4 || mixedSteps[2].stats.CacheHits != 3 || mixedSteps[3].done != 4 {
		t.Fatalf("mixed batch progress %+v, want three hits then the miss", mixedSteps)
	}

	// Key-first resolution: a batch whose keys are all cached never has
	// a cell built.
	warmBatch := &countingBatch{Cells: cells}
	if _, _, err := e.Run(ctx, warmBatch); err != nil {
		t.Fatal(err)
	}
	if len(warmBatch.built) != 0 {
		t.Fatalf("all-hit batch built cells at positions %v", warmBatch.built)
	}

	// Random batches mixing hits, misses and duplicates, on an engine
	// whose cache grows batch by batch, against the per-key model: each
	// hit (first-appearance order) is one CacheHits and one progress
	// step covering all its positions, then each miss likewise as
	// Simulated; a cell is built exactly once per missing key, at its
	// first position.
	rng := rand.New(rand.NewSource(19))
	val := func(key string) int { return len(key)*7 + int(key[len(key)-1]) }
	lazy := New[int](Options{Parallelism: 1})
	cachedKeys := map[string]bool{}
	for round := 0; round < 40; round++ {
		var keys []string
		for n := 1 + rng.Intn(24); len(keys) < n; {
			keys = append(keys, fmt.Sprintf("k%d", rng.Intn(16)))
		}
		var cs Cells[int]
		for _, k := range keys {
			cs = append(cs, countingCell(k, val(k), &runs))
		}
		mult := map[string]int{}
		var order []string
		for _, k := range keys {
			if mult[k] == 0 {
				order = append(order, k)
			}
			mult[k]++
		}
		var want Stats
		want.Submitted = uint64(len(keys))
		want.Deduped = uint64(len(keys) - len(order))
		var wantSteps []progressStep
		var wantBuilt []int
		step := func(k string) {
			prev := 0
			if len(wantSteps) > 0 {
				prev = wantSteps[len(wantSteps)-1].done
			}
			wantSteps = append(wantSteps, progressStep{prev + mult[k], len(keys), want})
		}
		for _, k := range order {
			if cachedKeys[k] {
				want.CacheHits++
				step(k)
			}
		}
		for _, k := range order {
			if !cachedKeys[k] {
				want.Simulated++
				step(k)
				for i, kk := range keys {
					if kk == k {
						wantBuilt = append(wantBuilt, i)
						break
					}
				}
			}
		}

		b := &countingBatch{Cells: cs}
		var steps []progressStep
		res, st, err := lazy.RunWith(ctx, b, record(&steps))
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if res[i] != val(k) {
				t.Fatalf("round %d: result %d (%s) = %d, want %d", round, i, k, res[i], val(k))
			}
		}
		if st != want {
			t.Fatalf("round %d: stats %+v, want %+v", round, st, want)
		}
		if !reflect.DeepEqual(steps, wantSteps) {
			t.Fatalf("round %d: progress %+v, want %+v", round, steps, wantSteps)
		}
		if !reflect.DeepEqual(b.built, wantBuilt) {
			t.Fatalf("round %d: built cells at %v, want %v", round, b.built, wantBuilt)
		}
		for _, k := range keys {
			cachedKeys[k] = true
		}
	}
}

// countingBatch is a batch over eagerly built cells that records which
// positions the engine asked it to build.
type countingBatch struct {
	Cells[int]
	built []int
}

func (b *countingBatch) Cell(i int) Cell[int] {
	b.built = append(b.built, i)
	return b.Cells[i]
}

func TestPerBatchProgressOverride(t *testing.T) {
	e := New[int](Options{Parallelism: 2, OnProgress: func(done, total int) {
		t.Error("engine-level progress called despite per-batch override")
	}})
	var runs atomic.Int64
	var got int
	_, _, err := e.RunWith(context.Background(),
		Cells[int]{countingCell("a", 1, &runs), countingCell("b", 2, &runs)},
		RunOptions{OnProgress: func(done, total int) { got = done }})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("per-batch progress reached %d, want 2", got)
	}
}

func TestDefaultParallelism(t *testing.T) {
	if p := New[int](Options{}).Parallelism(); p < 1 {
		t.Errorf("default parallelism = %d", p)
	}
}

// TestSingleflightAcrossBatches asserts the service-critical contract:
// two concurrent batches needing the same cold cell trigger exactly one
// computation, with the late batch served from the in-flight result.
func TestSingleflightAcrossBatches(t *testing.T) {
	e := New[int](Options{Parallelism: 4})
	var runs atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	slow := solo("shared", func(context.Context) (int, error) {
		runs.Add(1)
		once.Do(func() { close(entered) })
		<-release
		return 77, nil
	})

	type out struct {
		r     []int
		stats Stats
		err   error
	}
	results := make(chan out, 2)
	go func() {
		r, s, err := e.Run(context.Background(), Cells[int]{slow})
		results <- out{r, s, err}
	}()
	<-entered // first batch is computing
	go func() {
		r, s, err := e.Run(context.Background(), Cells[int]{slow})
		results <- out{r, s, err}
	}()
	// Give the second batch a moment to reach the inflight wait, then
	// let the computation finish. Even if it has not arrived yet, it can
	// only see the cache afterwards — never a second computation.
	close(release)

	var simulated, cacheHits uint64
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.r[0] != 77 {
			t.Fatalf("batch result = %d, want 77", o.r[0])
		}
		simulated += o.stats.Simulated
		cacheHits += o.stats.CacheHits
	}
	if runs.Load() != 1 {
		t.Fatalf("cell ran %d times across concurrent batches, want 1", runs.Load())
	}
	if simulated != 1 || cacheHits != 1 {
		t.Errorf("batch tallies: %d simulated / %d cache hits, want 1 / 1", simulated, cacheHits)
	}
}

// TestSingleflightFailureHandsOff asserts a waiter does not inherit the
// computing batch's cancellation: it claims the key and computes it.
func TestSingleflightFailureHandsOff(t *testing.T) {
	e := New[int](Options{Parallelism: 4})
	entered := make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())
	var calls atomic.Int64
	cell := solo("k", func(ctx context.Context) (int, error) {
		if calls.Add(1) == 1 {
			// First computation: a long simulation interrupted by its
			// batch's cancellation.
			close(entered)
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return 5, nil
	})

	firstDone := make(chan error, 1)
	go func() {
		_, _, err := e.Run(ctx1, Cells[int]{cell})
		firstDone <- err
	}()
	<-entered
	cancel1() // first batch's cell observes cancellation and fails
	if err := <-firstDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("first batch err = %v, want context.Canceled", err)
	}

	// The second batch must not be poisoned by the first's cancellation.
	got, stats, err := e.Run(context.Background(), Cells[int]{cell})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 || stats.Simulated != 1 {
		t.Errorf("handed-off computation: got %d (stats %+v), want 5 simulated once", got[0], stats)
	}
}

// TestCancelledRunReturnsCtxErr asserts in-flight cells observe the
// context and the batch reports ctx.Err().
func TestCancelledRunReturnsCtxErr(t *testing.T) {
	e := New[int](Options{Parallelism: 2})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	var cells Cells[int]
	for i := 0; i < 8; i++ {
		cells = append(cells, solo(fmt.Sprintf("c%d", i), func(ctx context.Context) (int, error) {
			once.Do(func() { close(started) })
			<-ctx.Done() // a long simulation polling its context
			return 0, ctx.Err()
		}))
	}
	go func() {
		<-started
		cancel()
	}()
	if _, _, err := e.Run(ctx, cells); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPreCancelledRunDoesNothing(t *testing.T) {
	e := New[int](Options{Parallelism: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var runs atomic.Int64
	if _, _, err := e.Run(ctx, Cells[int]{countingCell("a", 1, &runs)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if runs.Load() != 0 {
		t.Errorf("pre-cancelled run computed %d cells", runs.Load())
	}
}

// storeFiles returns every persisted cell file under a sharded store.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "??", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestStoreRoundTrip(t *testing.T) {
	type payload struct {
		X []float64 `json:"x"`
		N int       `json:"n"`
	}
	dir := t.TempDir()
	var runs atomic.Int64
	cell := solo("sweep/cap=8", func(context.Context) (payload, error) {
		runs.Add(1)
		return payload{X: []float64{1.5, 2.5}, N: 7}, nil
	})

	e1 := New[payload](Options{Parallelism: 1, ResultDir: dir})
	first, _, err := e1.Run(context.Background(), Cells[payload]{cell})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(storeFiles(t, dir)); n != 1 {
		t.Fatalf("store has %d sharded cell files, want 1", n)
	}

	// A fresh engine with the same store must index and serve the cell
	// from disk.
	e2 := New[payload](Options{Parallelism: 1, ResultDir: dir})
	if got := e2.StoredCells(); got != 1 {
		t.Fatalf("startup index found %d cells, want 1", got)
	}
	second, warm, err := e2.Run(context.Background(), Cells[payload]{cell})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("ran %d times, want 1 (store hit)", runs.Load())
	}
	if warm.StoreHits != 1 || warm.Simulated != 0 {
		t.Errorf("stats = %+v, want 1 store hit and 0 simulated", warm)
	}
	if second[0].N != first[0].N || second[0].X[0] != first[0].X[0] || second[0].X[1] != first[0].X[1] {
		t.Errorf("store round-trip changed result: %+v vs %+v", second[0], first[0])
	}
}

// TestStoreTruncatedCellResimulates is the crash-hardening regression
// test: a cell file truncated mid-write (simulating a crash without the
// atomic rename) must read as a miss on a warm re-run, re-simulate, and
// be healed in place.
func TestStoreTruncatedCellResimulates(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	cell := countingCell("k", 42, &runs)

	e := New[int](Options{Parallelism: 1, ResultDir: dir})
	if _, _, err := e.Run(context.Background(), Cells[int]{cell}); err != nil {
		t.Fatal(err)
	}
	files := storeFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("store has %d files, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Warm re-run on a fresh engine over the same store: the truncated
	// cell is a miss, not an error, and gets rewritten intact.
	e2 := New[int](Options{Parallelism: 1, ResultDir: dir})
	got, stats, err := e2.Run(context.Background(), Cells[int]{cell})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 || runs.Load() != 2 {
		t.Errorf("truncated cell not re-simulated: got %d after %d runs", got[0], runs.Load())
	}
	if stats.Simulated != 1 || stats.StoreHits != 0 {
		t.Errorf("stats = %+v, want 1 simulated / 0 store hits", stats)
	}
	e3 := New[int](Options{Parallelism: 1, ResultDir: dir})
	if _, healed, err := e3.Run(context.Background(), Cells[int]{cell}); err != nil || healed.StoreHits != 1 {
		t.Errorf("store not healed after re-simulation: stats %+v, err %v", healed, err)
	}
}

// TestStoreCorruptFileResimulates asserts an unparseable cell file, and
// a well-formed one without a checksum (the format written before
// checksums existed), each read as a miss: the cell re-simulates and
// its file is rewritten.
func TestStoreCorruptFileResimulates(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	cell := countingCell("k", 42, &runs)

	e := New[int](Options{Parallelism: 1, ResultDir: dir})
	if _, _, err := e.Run(context.Background(), Cells[int]{cell}); err != nil {
		t.Fatal(err)
	}
	files := storeFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("store has %d files, want 1", len(files))
	}
	for i, damaged := range []string{"{garbage", `{"key":"k","result":41}`} {
		if err := os.WriteFile(files[0], []byte(damaged), 0o644); err != nil {
			t.Fatal(err)
		}
		e2 := New[int](Options{Parallelism: 1, ResultDir: dir})
		got, stats, err := e2.Run(context.Background(), Cells[int]{cell})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 42 || runs.Load() != int64(i+2) || stats.StoreHits != 0 {
			t.Errorf("%q not re-simulated: got %d after %d runs, stats %+v", damaged, got[0], runs.Load(), stats)
		}
	}
}

func TestStoreWriteFailureKeepsResult(t *testing.T) {
	// A ResultDir that cannot be created: parent is a plain file. The
	// store detects this at construction and flips into cache-only mode
	// — jobs still succeed, served from the memory cache, and the
	// degradation is reported once via StoreDegraded rather than as a
	// per-cell StoreErrors tally.
	parent := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(parent, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	e := New[int](Options{Parallelism: 1, ResultDir: filepath.Join(parent, "store")})
	if why, bad := e.StoreDegraded(); !bad || why == "" {
		t.Fatalf("StoreDegraded = (%q, %v), want degraded with a reason", why, bad)
	}
	var runs atomic.Int64
	got, stats, err := e.Run(context.Background(), Cells[int]{countingCell("k", 7, &runs)})
	if err != nil {
		t.Fatalf("unusable store root aborted the batch: %v", err)
	}
	if got[0] != 7 {
		t.Errorf("result = %d, want 7", got[0])
	}
	if stats.Simulated != 1 || stats.StoreErrors != 0 {
		t.Errorf("stats = %+v, want 1 simulated and no per-cell store errors in degraded mode", stats)
	}
	// The result survived in the memory cache.
	if _, _, err := e.Run(context.Background(), Cells[int]{countingCell("k", 7, &runs)}); err != nil || runs.Load() != 1 {
		t.Errorf("computed result not served from cache after store failure (runs=%d, err=%v)", runs.Load(), err)
	}
}

// TestStoreIgnoresForeignFiles asserts the index only trusts the sharded
// layout: stray files in the root — including an intact cell in the
// pre-sharding flat layout (root/<hash>.json) — neither crash startup
// nor get served, so their cells re-simulate.
func TestStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.json"), []byte(`{"key":"k","result":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "not-a-shard"), 0o755); err != nil {
		t.Fatal(err)
	}
	raw := []byte("3")
	flat, err := json.Marshal(storedWire{Key: "k", Sum: sumBytes(raw), Result: raw})
	if err != nil {
		t.Fatal(err)
	}
	flatPath := filepath.Join(dir, hashKey("k")+".json")
	if err := os.WriteFile(flatPath, flat, 0o644); err != nil {
		t.Fatal(err)
	}
	e := New[int](Options{Parallelism: 1, ResultDir: dir})
	if got := e.StoredCells(); got != 0 {
		t.Errorf("index counted %d foreign cells, want 0", got)
	}
	var runs atomic.Int64
	got, stats, err := e.Run(context.Background(), Cells[int]{countingCell("k", 3, &runs)})
	if err != nil || got[0] != 3 || runs.Load() != 1 || stats.StoreHits != 0 {
		t.Errorf("foreign file interfered: got %v runs %d stats %+v err %v", got, runs.Load(), stats, err)
	}
	if _, err := os.Stat(flatPath); err != nil {
		t.Errorf("flat-layout file touched: %v", err)
	}
}

// TestCancelLeavesStoreConsistent asserts a cancelled batch leaves no
// temp droppings and only fully written cells, so a later run completes
// from a consistent store.
func TestCancelLeavesStoreConsistent(t *testing.T) {
	dir := t.TempDir()
	e := New[int](Options{Parallelism: 2, ResultDir: dir})
	ctx, cancel := context.WithCancel(context.Background())
	var cells Cells[int]
	fired := make(chan struct{})
	var once sync.Once
	for i := 0; i < 16; i++ {
		i := i
		cells = append(cells, solo(fmt.Sprintf("c%d", i), func(ctx context.Context) (int, error) {
			if i >= 4 {
				once.Do(func() { close(fired) })
				<-ctx.Done()
				return 0, ctx.Err()
			}
			return i * 2, nil
		}))
	}
	go func() {
		<-fired
		cancel()
	}()
	if _, _, err := e.Run(ctx, cells); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	if tmps, _ := filepath.Glob(filepath.Join(dir, "??", "*.tmp")); len(tmps) != 0 {
		t.Errorf("cancelled run left %d temp files: %v", len(tmps), tmps)
	}
	// Every persisted cell must be complete and parseable: a fresh
	// engine indexes them and a clean run serves them as store hits.
	for i := range cells {
		i := i
		cells[i] = solo(cells[i].Key, func(context.Context) (int, error) { return i * 2, nil })
	}
	e2 := New[int](Options{Parallelism: 2, ResultDir: dir})
	got, stats, err := e2.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*2 {
			t.Errorf("cell %d = %d after recovery, want %d", i, v, i*2)
		}
	}
	if stats.StoreHits+stats.Simulated != 16 {
		t.Errorf("recovery stats %+v do not cover all 16 cells", stats)
	}
}

// hookBatch is a batch over eagerly built cells that calls onCell each
// time the engine builds one.
type hookBatch struct {
	Cells[int]
	onCell func(i int)
}

func (b hookBatch) Cell(i int) Cell[int] {
	b.onCell(i)
	return b.Cells[i]
}

// TestLateHitJoinsEarlierMiss covers a key that misses at its first
// position and is cached — by another batch — before the engine
// reaches a later position of the same key: the later position must
// join the miss as a duplicate, not open a second slot for the key.
func TestLateHitJoinsEarlierMiss(t *testing.T) {
	ctx := context.Background()
	e := New[int](Options{Parallelism: 1})
	var runs atomic.Int64
	cell := countingCell("k", 7, &runs)
	b := hookBatch{Cells: Cells[int]{cell, cell}, onCell: func(int) {
		if _, _, err := e.Run(ctx, Cells[int]{cell}); err != nil {
			t.Error(err)
		}
	}}
	got, st, err := e.Run(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 || got[1] != 7 || runs.Load() != 1 {
		t.Fatalf("results %v after %d runs, want [7 7] after 1", got, runs.Load())
	}
	if want := (Stats{Submitted: 2, Deduped: 1, CacheHits: 1}); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}
