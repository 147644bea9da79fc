package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// warmStatsCase is one figure request whose engine tallies are pinned:
// the request run cold on a fresh engine, then again, warm.
type warmStatsCase struct {
	name       string
	run        func(e *Engine, o Options) error
	cold, warm EngineStats // Submitted, Deduped, CacheHits, Simulated
}

func warmStatsCases() []warmStatsCase {
	ctx := context.Background()
	caps, nrhs := []int{8, 32}, []int{64, 256}
	return []warmStatsCase{
		{name: "fig9",
			run:  func(e *Engine, o Options) error { _, err := e.Figure(ctx, "fig9", o, nil, caps); return err },
			cold: EngineStats{Submitted: 32, Simulated: 32},
			warm: EngineStats{Submitted: 32, CacheHits: 32}},
		{name: "fig12",
			run:  func(e *Engine, o Options) error { _, err := e.Figure(ctx, "fig12", o, nil, nrhs); return err },
			cold: EngineStats{Submitted: 32, Deduped: 2, Simulated: 30},
			warm: EngineStats{Submitted: 32, Deduped: 2, CacheHits: 30}},
		{name: "attack",
			run: func(e *Engine, o Options) error {
				_, err := e.AttackSweep(ctx, o, []string{"double", "decoy"}, nrhs)
				return err
			},
			cold: EngineStats{Submitted: 21, Simulated: 21},
			warm: EngineStats{Submitted: 21, CacheHits: 21}},
	}
}

// resolution is the part of a tally this test pins.
func resolution(s EngineStats) EngineStats {
	return EngineStats{Submitted: s.Submitted, Deduped: s.Deduped, CacheHits: s.CacheHits, Simulated: s.Simulated}
}

// TestWarmRequestEngineStats pins how the engine resolves Fig. 9, Fig. 12
// and attack-grid requests, cold on a fresh engine and then warm on the
// same engine: how many cells each submits, how many of those repeat a
// key of the same request (Fig. 12's Baseline cell at every NRH point),
// and how many the cache answers. A warm request must answer every
// unique key from the cache, one CacheHits per key, and simulate none.
func TestWarmRequestEngineStats(t *testing.T) {
	opts := Options{Workloads: 2, Cores: 4, Warmup: 1000, Measure: 3000, Seed: 3}
	for _, c := range warmStatsCases() {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(EngineConfig{Parallelism: 2})
			var cold, warm EngineStats
			o := opts
			o.Stats = &cold
			if err := c.run(e, o); err != nil {
				t.Fatal(err)
			}
			o.Stats = &warm
			if err := c.run(e, o); err != nil {
				t.Fatal(err)
			}
			if got := resolution(cold); got != c.cold {
				t.Errorf("cold request tally %+v, want %+v", got, c.cold)
			}
			if got := resolution(warm); got != c.warm {
				t.Errorf("warm request tally %+v, want %+v", got, c.warm)
			}
		})
	}
}

// TestWarmFigurePairAllocs guards the warm path's garbage: a Fig. 9
// plus Fig. 12 request pair (BenchmarkWarmFigure's grid, 104 cells) on
// an engine that already holds every cell resolves each key without
// building its cell, and takes its builtin mixes from the engine's
// mix-set memo, so the pair allocates only its request-level structures
// and rows. The ceiling sits above the measured count (about 170) with
// room for Go version drift, and far below the ~1000 allocations of
// building every cell to find it cached.
func TestWarmFigurePairAllocs(t *testing.T) {
	const ceiling = 220
	ctx := context.Background()
	e := NewEngine(EngineConfig{})
	opts := Options{Workloads: 2, Cores: 8, Warmup: 1000, Measure: 3000, Seed: 1}
	caps, nrhs := []int{8, 32, 128}, []int{64, 256, 1024}
	var stats EngineStats
	pair := func() {
		if _, err := e.Figure(ctx, "fig9", opts, nil, caps); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Figure(ctx, "fig12", opts, nil, nrhs); err != nil {
			t.Fatal(err)
		}
	}
	pair()
	opts.Stats = &stats
	allocs := testing.AllocsPerRun(10, pair)
	if stats.Simulated != 0 || stats.Submitted != 11*104 {
		t.Fatalf("warm pairs resolved %+v, want 104 cached cells per pair", stats)
	}
	if allocs > ceiling {
		t.Fatalf("warm Fig. 9 + Fig. 12 pair allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}

// TestWarmAttackAllocs guards a warm default attack-grid request (every
// preset at NRH 64 and 128, 40 sim cells): its attacker mixes come from
// the engine's mix-set memo, so it builds no attacker and renders no
// source key. The ceiling sits above the measured count (about 230);
// re-deriving the five attack mixes per request allocates about 440.
func TestWarmAttackAllocs(t *testing.T) {
	const ceiling = 300
	ctx := context.Background()
	e := NewEngine(EngineConfig{})
	opts := Options{Cores: 8, Warmup: 1000, Measure: 3000, Seed: 1}
	var stats EngineStats
	request := func() {
		if _, err := e.RunFigure(ctx, opts, FigureSpec{Kind: "attack"}); err != nil {
			t.Fatal(err)
		}
	}
	request()
	opts.Stats = &stats
	allocs := testing.AllocsPerRun(10, request)
	if stats.Simulated != 0 || stats.Submitted != 11*52 {
		t.Fatalf("warm attack requests resolved %+v, want 52 cached cells per request", stats)
	}
	if allocs > ceiling {
		t.Fatalf("warm attack-grid request allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}

// mixSetRequest is one figure request of the mix-set memo tests.
type mixSetRequest struct {
	spec FigureSpec
	opts Options
}

func (r mixSetRequest) String() string {
	return fmt.Sprintf("%s/w%d/c%d/s%d", r.spec.Kind, r.opts.Workloads, r.opts.Cores, r.opts.Seed)
}

// run runs r on e and returns its rows as JSON (the engine tally
// aside, which differs between a cold and a warm run) and its tally.
func (r mixSetRequest) run(t *testing.T, e *Engine) ([]byte, EngineStats) {
	t.Helper()
	res, err := e.RunFigure(context.Background(), r.opts, r.spec)
	if err != nil {
		t.Fatalf("%s: %v", r, err)
	}
	st := res.Stats
	res.Stats = EngineStats{}
	rows, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return rows, st
}

// mixSetRequests alternates builtin-mix and attack requests across
// seeds, core counts and workload counts; the attack requests differ
// from each other in the same inputs, and two share a seed and core
// count but not a workload count, which an attack set does not read.
func mixSetRequests() []mixSetRequest {
	fig9 := FigureSpec{Kind: "fig9", Capacities: []int{8}}
	attack := func(kind string) FigureSpec {
		return FigureSpec{Kind: "attack", Attacks: []string{kind}, NRHs: []int{64}}
	}
	o := func(workloads, cores int, seed uint64) Options {
		return Options{Workloads: workloads, Cores: cores, Warmup: 500, Measure: 1500, Seed: seed}
	}
	return []mixSetRequest{
		{fig9, o(1, 2, 1)},
		{attack("double"), o(1, 2, 1)},
		{fig9, o(2, 2, 1)},
		{attack("double"), o(2, 2, 1)},
		{fig9, o(1, 4, 2)},
		{attack("decoy"), o(1, 4, 2)},
		{fig9, o(1, 2, 3)},
		{attack("double"), o(1, 2, 3)},
	}
}

// TestWarmMixSetsMatchFreshEngines holds the engine's mix-set memo to
// fresh derivation: one engine runs builtin-mix and attack requests
// alternately, twice. The first pass's rows must be byte-identical to a
// fresh engine's rows for the same request, the second pass's to the
// first's, and the second pass must simulate nothing. The memo holds
// one set per distinct derivation input.
func TestWarmMixSetsMatchFreshEngines(t *testing.T) {
	reqs := mixSetRequests()
	e := NewEngine(EngineConfig{Parallelism: 2})
	first := make([][]byte, len(reqs))
	for i, r := range reqs {
		first[i], _ = r.run(t, e)
		want, _ := r.run(t, NewEngine(EngineConfig{Parallelism: 2}))
		if !bytes.Equal(first[i], want) {
			t.Fatalf("%s on a shared engine:\n%s\nfresh engine:\n%s", r, first[i], want)
		}
	}
	for i, r := range reqs {
		rows, st := r.run(t, e)
		if !bytes.Equal(rows, first[i]) {
			t.Fatalf("%s repeated:\n%s\nfirst:\n%s", r, rows, first[i])
		}
		if st.Simulated != 0 {
			t.Errorf("%s repeated simulated %d cells, want 0", r, st.Simulated)
		}
	}
	// Builtin: (1,2,1) (2,2,1) (1,4,2) (1,2,3); attack: double/2/1,
	// decoy/4/2, double/2/3.
	if n := len(e.mixSets); n != 7 {
		t.Errorf("memo holds %d mix sets, want 7", n)
	}
}

// TestWarmMixSetMemoBound runs more distinct seeds than the memo holds:
// the memo stops at maxMixSets, and a request whose set it could not
// store still matches a fresh engine and repeats warm.
func TestWarmMixSetMemoBound(t *testing.T) {
	e := NewEngine(EngineConfig{Parallelism: 2})
	base := Options{Workloads: 1, Cores: 1, Warmup: 20, Measure: 60}
	policies := []RefreshPolicy{BaselinePolicy()}
	ctx := context.Background()
	for seed := uint64(1); seed <= maxMixSets+3; seed++ {
		o := base
		o.Seed = seed
		got, err := e.RunPolicies(ctx, DefaultConfig(), policies, o)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(e.mixSets); n > maxMixSets {
			t.Fatalf("after seed %d the memo holds %d mix sets, bound %d", seed, n, maxMixSets)
		}
		if seed <= maxMixSets {
			continue
		}
		want, err := NewEngine(EngineConfig{Parallelism: 2}).RunPolicies(ctx, DefaultConfig(), policies, o)
		if err != nil {
			t.Fatal(err)
		}
		var st EngineStats
		o.Stats = &st
		again, err := e.RunPolicies(ctx, DefaultConfig(), policies, o)
		if err != nil {
			t.Fatal(err)
		}
		if !equalJSON(t, got, want) || !equalJSON(t, again, want) || st.Simulated != 0 {
			t.Fatalf("seed %d past the bound: %+v, repeated %+v (%+v), fresh engine %+v", seed, got, again, st, want)
		}
	}
	if n := len(e.mixSets); n != maxMixSets {
		t.Fatalf("memo holds %d mix sets after %d seeds, want %d", n, maxMixSets+3, maxMixSets)
	}
}

// equalJSON reports whether a and b marshal to the same bytes.
func equalJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// TestWarmMixSetsConcurrent sends warm Fig. 9 and attack requests with
// different seeds to one engine from several goroutines at once, after
// emptying its mix-set memo, so concurrent requests derive, store and
// share sets together. Every answer must match the sequential one and
// simulate nothing. CI runs it under the race detector.
func TestWarmMixSetsConcurrent(t *testing.T) {
	reqs := mixSetRequests()
	e := NewEngine(EngineConfig{Parallelism: 2})
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		want[i], _ = r.run(t, e)
	}
	e.mixSets = nil
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range reqs {
				i := (k + w) % len(reqs)
				r := reqs[i]
				res, err := e.RunFigure(context.Background(), r.opts, r.spec)
				if err != nil {
					t.Errorf("%s: %v", r, err)
					return
				}
				if res.Stats.Simulated != 0 {
					t.Errorf("%s simulated %d cells, want 0", r, res.Stats.Simulated)
				}
				res.Stats = EngineStats{}
				if rows, _ := json.Marshal(res); !bytes.Equal(rows, want[i]) {
					t.Errorf("%s concurrently:\n%s\nsequentially:\n%s", r, rows, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSweepBatchKeysMatchCells checks the sweep batch's two renderings of
// every position agree: the key the engine probes its cache with, and
// the key of the cell it builds on a miss. (The engine also rejects a
// mismatching miss at run time; this covers every position, hits
// included, without running anything.)
func TestSweepBatchKeysMatchCells(t *testing.T) {
	opts := Options{Workloads: 2, Cores: 4, Warmup: 1000, Measure: 3000, Seed: 3, Forensics: true}.withDefaults()
	mixes, err := opts.mixSet()
	if err != nil {
		t.Fatal(err)
	}
	other, err := Options{Workloads: 1, Cores: 4, Seed: 9}.withDefaults().mixSet()
	if err != nil {
		t.Fatal(err)
	}
	var points []sweepPoint
	for _, nrh := range []int{64, 256} {
		points = append(points, sweepPoint{base: DefaultConfig(), policies: fig12Policies(nrh), mixes: mixes})
	}
	points = append(points, sweepPoint{base: scaleConfig(2, 32, true), policies: attackSweepPolicies(128), mixes: other})
	sw := newSweepBatch(nil, opts, points)
	if sw.Len() == 0 {
		t.Fatal("empty sweep batch")
	}
	var buf []byte
	for i := 0; i < sw.Len(); i++ {
		buf = sw.AppendKey(buf[:0], i)
		if c := sw.Cell(i); c.Key != string(buf) {
			t.Fatalf("position %d renders key %q, its cell %q", i, buf, c.Key)
		}
	}
}
