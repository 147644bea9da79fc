package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"hira/internal/engine"
	"hira/internal/workload"
)

// plannerTestPolicies is the six-policy figure set every planner
// differential runs against (the same shapes TestResumeEquivalence
// covers: ideal, conventional REF, periodic HiRA at two slacks, PARA,
// and PARA+HiRA).
func plannerTestPolicies() []RefreshPolicy {
	return []RefreshPolicy{
		NoRefreshPolicy(),
		BaselinePolicy(),
		HiRAPeriodicPolicy(2),
		HiRAPeriodicPolicy(8),
		PARAPolicy(256),
		PARAHiRAPolicy(256, 4),
	}
}

// TestPlannerDifferential proves the tentpole guarantee: a multi-horizon
// sweep resolved by the trajectory-coalescing planner produces rows
// bit-identical to the per-cell path, across all six figure policies,
// while doing measurably less machine work (simulated plus
// checkpoint-restored ticks).
func TestPlannerDifferential(t *testing.T) {
	ctx := context.Background()
	base := DefaultConfig()
	base.ChipCapacityGbit = 8
	policies := plannerTestPolicies()
	measures := []int{3000, 6000}
	opts := Options{Workloads: 1, Cores: 4, Warmup: 2000, Seed: 5}

	var planned EngineStats
	pOpts := opts
	pOpts.Stats = &planned
	got, err := NewEngine(EngineConfig{SnapInterval: 1500}).
		RunPoliciesHorizons(ctx, base, policies, pOpts, measures)
	if err != nil {
		t.Fatal(err)
	}

	var unplanned EngineStats
	uOpts := opts
	uOpts.Stats = &unplanned
	uOpts.NoPlanner = true
	want, err := NewEngine(EngineConfig{SnapInterval: 1500}).
		RunPoliciesHorizons(ctx, base, policies, uOpts, measures)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("planned rows diverged from per-cell path:\nplanned:   %+v\nunplanned: %+v", got, want)
	}
	if planned.PlannedPasses == 0 || planned.PlannedCells == 0 {
		t.Fatalf("planner did not engage: %+v", planned)
	}
	// The planner's savings: each trajectory simulates once to its max
	// horizon, instead of one restore-and-extend (or cold rerun) per
	// horizon. Simulated + restored ticks is the total machine work.
	plannedWork := planned.SimulatedTicks + planned.ResumedTicks
	unplannedWork := unplanned.SimulatedTicks + unplanned.ResumedTicks
	if plannedWork >= unplannedWork {
		t.Fatalf("planned work %d ticks >= unplanned %d", plannedWork, unplannedWork)
	}
}

// TestPlannerDifferentialForensicsAndMitigation extends the differential
// to the cell kinds that cannot checkpoint: forensics-armed cells and
// mitigation-zoo policies run their passes cold, but still coalesce and
// still must match the per-cell path exactly.
func TestPlannerDifferentialForensicsAndMitigation(t *testing.T) {
	ctx := context.Background()
	base := DefaultConfig()
	base.ChipCapacityGbit = 8
	policies := []RefreshPolicy{BaselinePolicy(), GraphenePolicy(128, 0), RFMPolicy(128, 0)}
	measures := []int{2000, 4000}
	opts := Options{Workloads: 1, Cores: 2, Warmup: 1000, Seed: 3, Forensics: true}

	got, err := NewEngine(EngineConfig{SnapInterval: 1000}).
		RunPoliciesHorizons(ctx, base, policies, opts, measures)
	if err != nil {
		t.Fatal(err)
	}
	uOpts := opts
	uOpts.NoPlanner = true
	want, err := NewEngine(EngineConfig{SnapInterval: 1000}).
		RunPoliciesHorizons(ctx, base, policies, uOpts, measures)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("planned forensics/mitigation rows diverged:\nplanned:   %+v\nunplanned: %+v", got, want)
	}
}

// TestPlannerWarmStoreReplay proves pass-emitted rows live under their
// original per-cell keys: a planned sweep fully warms the store for the
// per-cell path and vice versa, so switching the planner on or off
// never re-simulates a stored cell.
func TestPlannerWarmStoreReplay(t *testing.T) {
	ctx := context.Background()
	base := DefaultConfig()
	base.ChipCapacityGbit = 8
	policies := []RefreshPolicy{BaselinePolicy(), HiRAPeriodicPolicy(2)}
	measures := []int{2000, 5000}
	opts := Options{Workloads: 1, Cores: 2, Warmup: 1000, Seed: 1}

	for _, firstPlanned := range []bool{true, false} {
		e := NewEngine(EngineConfig{SnapInterval: 1000})
		first := opts
		first.NoPlanner = !firstPlanned
		rows, err := e.RunPoliciesHorizons(ctx, base, policies, first, measures)
		if err != nil {
			t.Fatal(err)
		}
		var again EngineStats
		second := opts
		second.NoPlanner = firstPlanned
		second.Stats = &again
		rows2, err := e.RunPoliciesHorizons(ctx, base, policies, second, measures)
		if err != nil {
			t.Fatal(err)
		}
		if again.Simulated != 0 {
			t.Fatalf("replay (planned first: %t) re-simulated %d cells: %+v", firstPlanned, again.Simulated, again)
		}
		if !reflect.DeepEqual(rows, rows2) {
			t.Fatalf("replay rows diverged (planned first: %t)", firstPlanned)
		}
	}
}

// TestPlannerPassCancellation proves a cancelled coalesced pass keeps
// the rows it already emitted: cancelling right after the first
// member's emission fails the pass, but that member's row is final and
// bit-identical to its per-cell result.
func TestPlannerPassCancellation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.ChipCapacityGbit = 8
	cfg.Seed = 1
	cfg.Policy = BaselinePolicy()
	mix := workload.Mixes(1, 2, 1)[0].Sources()
	lab := NewEngine(EngineConfig{SnapInterval: 1000})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	members := []engine.PlanMember{
		{Key: simCellKey(cfg, identify(mix).wl, 1000, 3000), Horizon: 4000,
			Payload: simPassPayload{cfg: cfg, mix: mix, warmup: 1000, measure: 3000}},
		{Key: simCellKey(cfg, identify(mix).wl, 2000, 10000), Horizon: 12000,
			Payload: simPassPayload{cfg: cfg, mix: mix, warmup: 2000, measure: 10000}},
	}
	emitted := map[int]CellResult{}
	err := runSimPass(ctx, lab, members, func(i int, r CellResult) {
		emitted[i] = r
		cancel() // first emission cancels the pass mid-flight
	})
	if err == nil {
		t.Fatal("cancelled pass reported success")
	}
	if len(emitted) != 1 {
		t.Fatalf("cancelled pass emitted %d rows, want 1", len(emitted))
	}
	ref, err := runSimCell(context.Background(), nil, 0, cfg, mix, 1000, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(emitted[0], simCellResult(ref)) {
		t.Fatalf("row emitted before cancellation diverged from per-cell path:\npass: %+v\ncell: %+v",
			emitted[0], simCellResult(ref))
	}
}

// TestPlannerBatchCancellation proves batch-level cancellation
// semantics end to end: a cancelled multi-horizon sweep fails, but
// every row resolved before the cancellation stays cached and serves
// the resubmitted sweep.
func TestPlannerBatchCancellation(t *testing.T) {
	base := DefaultConfig()
	base.ChipCapacityGbit = 8
	policies := plannerTestPolicies()
	measures := []int{2000, 4000}
	e := NewEngine(EngineConfig{SnapInterval: 1000, Parallelism: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Workloads: 1, Cores: 2, Warmup: 1000, Seed: 2}
	cOpts := opts
	cOpts.ProgressStats = func(done, total int, batch EngineStats) {
		if done >= 1 {
			cancel() // with Parallelism 1 at least one later unit must fail
		}
	}
	if _, err := e.RunPoliciesHorizons(ctx, base, policies, cOpts, measures); err == nil {
		t.Fatal("cancelled sweep reported success")
	}

	var again EngineStats
	rOpts := opts
	rOpts.Stats = &again
	rows, err := e.RunPoliciesHorizons(context.Background(), base, policies, rOpts, measures)
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHits+again.StoreHits == 0 {
		t.Fatalf("cancellation kept no resolved rows: %+v", again)
	}
	uOpts := opts
	uOpts.NoPlanner = true
	want, err := NewEngine(EngineConfig{SnapInterval: 1000}).
		RunPoliciesHorizons(context.Background(), base, policies, uOpts, measures)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatal("rows after cancellation + resubmit diverged from per-cell path")
	}
}

// TestDeltaCheckpointChain proves the differential-checkpoint format
// end to end at the checkpointer layer: interval saves after the first
// are deltas, a fresh checkpointer restores through the chain to state
// byte-identical to a straight run, and continuing the restored machine
// reproduces the per-cell result exactly.
func TestDeltaCheckpointChain(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.ChipCapacityGbit = 8
	cfg.Seed = 1
	cfg.Policy = BaselinePolicy()
	mix := workload.Mixes(1, 2, 1)[0].Sources()
	snaps := engine.NewSnapStore("", 0)
	ck := &checkpointer{snaps: snaps, interval: 1000, key: trajectoryKey(cfg, identify(mix).wl)}

	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.runTo(ctx, sys, 5000); err != nil {
		t.Fatal(err)
	}
	st := snaps.Stats()
	if st.Saves != 5 || st.DeltaSaves != 4 {
		t.Fatalf("want 1 full + 4 delta checkpoints, got %d saves (%d deltas)", st.Saves, st.DeltaSaves)
	}
	if st.DeltaBytes == 0 || st.DeltaBytes >= uint64(st.Bytes) {
		t.Fatalf("delta byte accounting off: %d of %d", st.DeltaBytes, st.Bytes)
	}

	ck2 := &checkpointer{snaps: snaps, interval: 1000, key: ck.key}
	sys2, mark, haveMark := ck2.resumeSystem(ctx, cfg, mix, 2000, 6000)
	if sys2 == nil || sys2.Ticks() != 5000 {
		t.Fatalf("chain resume failed (got %v)", sys2)
	}
	if !haveMark {
		t.Fatal("warmup mark not recovered from delta checkpoint header")
	}
	if ck2.lastTick != 5000 || ck2.depth != 4 {
		t.Fatalf("resume epoch = (%d, %d), want (5000, 4)", ck2.lastTick, ck2.depth)
	}

	ref, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunTo(ctx, 5000); err != nil {
		t.Fatal(err)
	}
	a, err := sys2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("chain-restored state diverged from straight run")
	}

	if err := ck2.runTo(ctx, sys2, 6000); err != nil {
		t.Fatal(err)
	}
	got := sys2.resultSince(mark, 4000)
	cold, err := runSimCell(ctx, nil, 0, cfg, mix, 2000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cold) {
		t.Fatalf("chain-resumed result diverged:\nresumed: %+v\ncold:    %+v", got, cold)
	}
}

// TestDeltaChainBounded proves the writer forces a full snapshot once a
// chain reaches maxDeltaChain links, so restore cost stays bounded.
func TestDeltaChainBounded(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.ChipCapacityGbit = 8
	cfg.Seed = 1
	cfg.Policy = BaselinePolicy()
	mix := workload.Mixes(1, 2, 1)[0].Sources()
	snaps := engine.NewSnapStore("", 0)
	ck := &checkpointer{snaps: snaps, interval: 500, key: trajectoryKey(cfg, identify(mix).wl)}
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	// 12 interval saves: full at 500, deltas to depth 8 at 4500, then a
	// forced full at 5000 and fresh deltas after it.
	if err := ck.runTo(ctx, sys, 6000); err != nil {
		t.Fatal(err)
	}
	st := snaps.Stats()
	fulls := st.Saves - st.DeltaSaves
	if fulls != 2 {
		t.Fatalf("want 2 full checkpoints in a 12-save run (chain cap %d), got %d", maxDeltaChain, fulls)
	}
	// The whole chain (including past the forced full) must restore.
	ck2 := &checkpointer{snaps: snaps, interval: 500, key: ck.key}
	sys2, _, _ := ck2.resumeSystem(ctx, cfg, mix, 0, 6000)
	if sys2 == nil || sys2.Ticks() != 6000 {
		t.Fatalf("resume across forced-full boundary failed (got %v)", sys2)
	}
}

// TestDeltaSnapshotPreSized pins the pre-sizing contract for both
// checkpoint formats: the encoder's buffer is sized up front (encoded
// bytes never exceed SnapshotSize / SnapshotDeltaSize, which follow the
// LLC's occupied and touched line counts) and encoding allocates only
// the writer and its buffer — zero growth reallocations.
func TestDeltaSnapshotPreSized(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.ChipCapacityGbit = 8
	cfg.Seed = 1
	cfg.Policy = BaselinePolicy()
	mix := workload.Mixes(1, 4, 1)[0].Sources()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunTo(ctx, 3000); err != nil {
		t.Fatal(err)
	}
	sys.ResetTouchedLines()
	if err := sys.RunTo(ctx, 4000); err != nil {
		t.Fatal(err)
	}
	formats := []struct {
		name   string
		bound  int
		encode func() ([]byte, error)
	}{
		{"full", sys.SnapshotSize(), sys.Snapshot},
		{"delta", sys.SnapshotDeltaSize(), func() ([]byte, error) { return sys.SnapshotDelta(3000, 1) }},
	}
	for _, f := range formats {
		data, err := f.encode()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > f.bound {
			t.Fatalf("%s: encoded %d bytes, pre-size bound %d", f.name, len(data), f.bound)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := f.encode(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("%s: encode allocated %v times, want <= 2 (writer + pre-sized buffer)", f.name, allocs)
		}
	}
}

// FuzzDeltaSnapshotDecode holds the delta-apply path to the clean-miss
// contract: corrupt, truncated, or mis-chained delta checkpoints are
// rejected with an error — never a panic, never silently wrong state —
// and any delta that does apply yields a machine that survives running.
func FuzzDeltaSnapshotDecode(f *testing.F) {
	cfg, mix := fuzzSnapshotConfig()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		f.Fatal(err)
	}
	if err := sys.RunTo(context.Background(), 600); err != nil {
		f.Fatal(err)
	}
	base, err := sys.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	sys.ResetTouchedLines()
	if err := sys.RunTo(context.Background(), 900); err != nil {
		f.Fatal(err)
	}
	delta, err := sys.SnapshotDelta(600, 1)
	if err != nil {
		f.Fatal(err)
	}
	mischained, err := sys.SnapshotDelta(450, 2) // base tick no restored machine sits at
	if err != nil {
		f.Fatal(err)
	}
	f.Add(delta)
	f.Add(delta[:len(delta)/2])
	f.Add(mischained)
	f.Add([]byte(deltaMagic))
	mut := append([]byte(nil), delta...)
	mut[len(mut)/3] ^= 0x40
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Real deltas for this config are a few KB; cap mutator-grown
		// inputs so each exec stays fast (decode work is input-bounded
		// but a multi-MB queue section decodes in ordered-insert time).
		if len(data) > 64<<10 {
			return
		}
		// Header validation is the cheap gate most hostile inputs die at;
		// only header-valid deltas pay for restoring the trusted base.
		if _, _, _, _, err := readDeltaHeader(data); err != nil {
			return // clean miss
		}
		s, err := RestoreSystem(cfg, mix, base) // trusted base at tick 600
		if err != nil {
			t.Fatal(err)
		}
		if err := applySystemDelta(s, data); err != nil {
			return // clean miss
		}
		// A delta that passed validation must be safe to simulate.
		for i := 0; i < 64; i++ {
			s.Tick()
		}
	})
}
