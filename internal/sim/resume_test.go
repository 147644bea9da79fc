package sim

import (
	"context"
	"reflect"
	"testing"

	"hira/internal/engine"
	"hira/internal/workload"
)

// TestResumableCells proves the engine-level guarantee: on a warm
// checkpoint store, extending a sweep's horizons resumes every sim cell
// and simulates only its delta, while the alone-IPC references, which
// never checkpoint, re-simulate from tick zero; the results are
// bit-identical to a cold straight-through run.
func TestResumableCells(t *testing.T) {
	ctx := context.Background()
	base := DefaultConfig()
	base.ChipCapacityGbit = 8
	policies := []RefreshPolicy{BaselinePolicy(), HiRAPeriodicPolicy(2)}
	short := Options{Workloads: 2, Cores: 4, Warmup: 2000, Measure: 4000, Seed: 1}
	long := short
	long.Measure = 10000

	const interval = 1500
	warm := NewEngine(EngineConfig{SnapInterval: interval})

	// Populate the store with the short run's checkpoints.
	if _, err := warm.RunPolicies(ctx, base, policies, short); err != nil {
		t.Fatal(err)
	}
	snapStats, ok := warm.SnapshotStats()
	if !ok || snapStats.Saves == 0 {
		t.Fatalf("no checkpoints written: %+v", snapStats)
	}

	// Cold reference for the long run (checkpointing on, nothing stored):
	// results must not depend on resume at all.
	coldScores, err := NewEngine(EngineConfig{SnapInterval: interval}).
		RunPolicies(ctx, base, policies, long)
	if err != nil {
		t.Fatal(err)
	}

	var stats EngineStats
	longOpts := long
	longOpts.Stats = &stats
	warmScores, err := warm.RunPolicies(ctx, base, policies, longOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmScores, coldScores) {
		t.Fatalf("resumed scores diverged from cold run:\nwarm: %+v\ncold: %+v", warmScores, coldScores)
	}

	// Every sim cell resumes from the short run's final tick and
	// simulates the horizon delta; every alone reference (one per core
	// of each mix) simulates the long horizon from tick zero.
	simCells := uint64(len(policies) * short.Workloads)
	aloneCells := uint64(short.Workloads * short.Cores)
	wantResumed := simCells * uint64(short.Warmup+short.Measure)
	wantSimulated := simCells*uint64(long.Measure-short.Measure) + aloneCells*uint64(long.Measure)
	if stats.Simulated != simCells+aloneCells || stats.Resumed != simCells ||
		stats.ResumedTicks != wantResumed || stats.SimulatedTicks != wantSimulated {
		t.Fatalf("extension: %d simulated (%d resumed) cells, %d simulated + %d resumed ticks; want %d (%d) cells, %d + %d ticks (%d sim + %d alone cells); stats %+v",
			stats.Simulated, stats.Resumed, stats.SimulatedTicks, stats.ResumedTicks,
			simCells+aloneCells, simCells, wantSimulated, wantResumed, simCells, aloneCells, stats)
	}

	// Resubmitting the exact long run is a pure cache hit — resume never
	// degrades exact-match caching.
	var again EngineStats
	againOpts := long
	againOpts.Stats = &again
	if _, err := warm.RunPolicies(ctx, base, policies, againOpts); err != nil {
		t.Fatal(err)
	}
	if again.Simulated != 0 {
		t.Fatalf("warm resubmission simulated %d cells", again.Simulated)
	}
}

// TestResumableCellsSplitIndependence covers the warmup-boundary logic:
// a trajectory checkpointed by one warmup/measure split serves a run
// with a different split of the same trajectory, because measured
// results are differences of cumulative state and the runner checkpoints
// the warmup boundary it needs.
func TestResumableCellsSplitIndependence(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.ChipCapacityGbit = 8
	cfg.Seed = 1
	cfg.Policy = BaselinePolicy()
	mix := workload.Mixes(1, 4, 1)[0].Sources()
	wl := identify(mix).wl

	warm := NewEngine(EngineConfig{SnapInterval: 1000})
	// First run fixes the trajectory's checkpoints, including tick 6000.
	if _, _, err := warm.eng.Run(ctx, cellSlice{simCell(warm, cfg, mix, wl, 2000, 4000)}); err != nil {
		t.Fatal(err)
	}
	// A different split whose warmup (3000) sits on the checkpoint grid:
	// the runner restores tick 3000 for the mark and tick 6000 for the
	// state, simulating only 6000..7000.
	got, st, err := warm.eng.Run(ctx, cellSlice{simCell(warm, cfg, mix, wl, 3000, 4000)})
	if err != nil {
		t.Fatal(err)
	}
	if st.ResumedTicks != 6000 || st.SimulatedTicks != 1000 {
		t.Fatalf("split resume: %d resumed + %d simulated ticks, want 6000 + 1000", st.ResumedTicks, st.SimulatedTicks)
	}
	if cold := coldCell(t, cfg, mix, 3000, 4000); !reflect.DeepEqual(got[0], cold) {
		t.Fatalf("split-resumed result diverged from cold:\nwarm: %+v\ncold: %+v", got[0], cold)
	}
}

// TestResumeLongestChargesGhostDespiteResave drives resumeLongest with a
// take hook that re-saves an evicted checkpoint slot — as a concurrent
// run of the same trajectory would — between the candidate's load and
// the attempt's attribution. The attempt resumed at tick 1000 while the
// evicted checkpoint at 2000 would have served it, so the eviction
// still owes 1000 re-simulated ticks, re-save or not.
func TestResumeLongestChargesGhostDespiteResave(t *testing.T) {
	snaps := engine.NewSnapStore("", 300)
	ck := checkpointer{snaps: snaps, interval: 1000, key: "traj"}
	payload := func() []byte { return make([]byte, 100) }
	for _, tick := range []int{1000, 2000, 3000} {
		if err := snaps.Save(ck.key, tick, payload()); err != nil {
			t.Fatal(err)
		}
	}
	snaps.Load(ck.key, 1000) // 2000 becomes least recently used
	if err := snaps.Save(ck.key, 4000, payload()); err != nil {
		t.Fatal(err)
	}
	if snaps.Has(ck.key, 2000) {
		t.Fatal("checkpoint 2000 was not evicted")
	}
	resumed := ck.resumeLongest(context.Background(), 2500, func(tick int, _ []byte) bool {
		if err := snaps.Save(ck.key, 2000, payload()); err != nil {
			t.Fatal(err)
		}
		return tick == 1000
	})
	st := snaps.Stats()
	if !resumed || st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("resumed %v, tallies %+v, want one hit", resumed, st)
	}
	if st.GhostHits != 1 || st.EvictionResimTicks != 1000 {
		t.Fatalf("ghost hits %d charging %d ticks, want 1 charging 1000", st.GhostHits, st.EvictionResimTicks)
	}
}
