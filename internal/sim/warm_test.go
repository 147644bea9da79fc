package sim

import (
	"context"
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
// building its cell, so the pair allocates only its request-level
// structures and rows. The ceiling sits above the measured count
// (about 310) with room for Go version drift, and far below the
// ~1000 allocations of building every cell to find it cached.
func TestWarmFigurePairAllocs(t *testing.T) {
	const ceiling = 400
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
