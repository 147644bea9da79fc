package engine_test

import (
	"context"
	"reflect"
	"testing"

	"hira/internal/sim"
)

// fig9Opts is a laptop-scale Fig. 9-shaped sweep configuration.
func fig9Opts() sim.Options {
	return sim.Options{Workloads: 2, Cores: 8, Warmup: 4000, Measure: 15000, Seed: 1}
}

// fig9 runs the laptop-scale Fig. 9 sweep over caps on a fresh engine
// built from cfg.
func fig9(t *testing.T, cfg sim.EngineConfig, caps []int) *sim.FigureResult {
	t.Helper()
	res, err := sim.NewEngine(cfg).RunFigure(context.Background(), fig9Opts(), sim.FigureSpec{Kind: "fig9", Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEngineDeterminism asserts the engine's core contract on a real
// Fig. 9-shaped sweep: scheduling order must not leak into results
// (Parallelism 1 and 8 produce identical rows and PolicyScores), and a
// cache-warm re-run against a result store performs zero simulations.
func TestEngineDeterminism(t *testing.T) {
	caps := []int{8, 32}

	t.Run("parallel-matches-serial", func(t *testing.T) {
		serial := fig9(t, sim.EngineConfig{Parallelism: 1}, caps).Fig9
		parallel := fig9(t, sim.EngineConfig{Parallelism: 8}, caps).Fig9
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("Fig9 rows differ between Parallelism 1 and 8:\nserial:   %+v\nparallel: %+v",
				serial, parallel)
		}

		base := sim.DefaultConfig()
		base.ChipCapacityGbit = 32
		policies := []sim.RefreshPolicy{sim.BaselinePolicy(), sim.HiRAPeriodicPolicy(2)}
		serialOpts, parallelOpts := fig9Opts(), fig9Opts()
		serialOpts.Parallelism, parallelOpts.Parallelism = 1, 8
		s1, err := sim.RunPolicies(context.Background(), base, policies, serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		s8, err := sim.RunPolicies(context.Background(), base, policies, parallelOpts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s1, s8) {
			t.Fatalf("PolicyScores differ between Parallelism 1 and 8:\n%+v\nvs\n%+v", s1, s8)
		}
	})

	t.Run("warm-rerun-simulates-nothing", func(t *testing.T) {
		cfg := sim.EngineConfig{Parallelism: 4, ResultDir: t.TempDir()}
		first := fig9(t, cfg, caps)
		if cold := first.Stats; cold.Simulated == 0 {
			t.Fatal("cold run simulated nothing; stats not wired")
		}
		second := fig9(t, cfg, caps)
		if warm := second.Stats; warm.Simulated != 0 {
			t.Errorf("cache-warm re-run simulated %d cells, want 0 (stats %+v)", warm.Simulated, warm)
		}
		if second.Stats.StoreHits == 0 {
			t.Error("cache-warm re-run hit the store zero times")
		}
		if !reflect.DeepEqual(first.Fig9, second.Fig9) {
			t.Fatalf("store round-trip changed Fig9 rows:\n%+v\nvs\n%+v", first, second)
		}
	})
}

// TestEngineSharesCellsAcrossSweepPoints asserts the dedup the engine
// exists for: alone-IPC reference cells are simulated once for the whole
// sweep rather than once per capacity. A figure submits every sweep
// point as one batch, so the two capacities' shared alone references
// are submitted once: 2 capacities x 6 policies x 2 mixes = 24 sim
// cells plus 2 mixes x 8 cores = 16 distinct alone cells, each
// simulated exactly once and none served from cache.
func TestEngineSharesCellsAcrossSweepPoints(t *testing.T) {
	stats := fig9(t, sim.EngineConfig{Parallelism: 4}, []int{8, 32}).Stats
	if stats.Submitted != 40 || stats.Simulated != 40 || stats.CacheHits != 0 {
		t.Errorf("two-capacity Fig9 sweep: submitted %d, simulated %d, cache hits %d; want 40, 40, 0 — alone references not shared across capacities (stats %+v)",
			stats.Submitted, stats.Simulated, stats.CacheHits, stats)
	}
}
