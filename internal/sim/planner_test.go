package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"hira/internal/engine"
	"hira/internal/workload"
)

// plannerTestPolicies is the six-policy figure set every cell
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

// coldCell is the differential oracle for one sim cell: a cold
// straight-through NewSystem + System.RunContext, with no engine and no
// checkpoints.
func coldCell(t *testing.T, cfg Config, mix workload.SourceMix, warmup, measure int) CellResult {
	t.Helper()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunContext(context.Background(), warmup, measure, nil)
	if err != nil {
		t.Fatal(err)
	}
	return simCellResult(res)
}

// cellSlice is an engine batch of cells built up front.
type cellSlice []engine.Cell[CellResult]

func (c cellSlice) Len() int                           { return len(c) }
func (c cellSlice) AppendKey(dst []byte, i int) []byte { return append(dst, c[i].Key...) }
func (c cellSlice) Cell(i int) engine.Cell[CellResult] { return c[i] }

// assertColdOracle checks every cell a RunPolicies sweep at measured
// horizon measure on lab resolved — each (policy, mix) sim cell and
// each alone-IPC reference — against cold straight-through runs,
// reading the engine's rows back from its cache. It returns the ticks a
// fresh engine must simulate for the sweep: each unique sim cell's
// warmup + measure and each unique alone reference's measure.
func assertColdOracle(t *testing.T, lab *Engine, base Config, policies []RefreshPolicy, opts Options, measure int) uint64 {
	t.Helper()
	ctx := context.Background()
	opts = opts.withDefaults()
	mixes, err := opts.sourceMixes()
	if err != nil {
		t.Fatal(err)
	}
	var cells cellSlice
	var want []CellResult
	var horizons []int
	for _, mix := range mixes {
		id := identify(mix)
		for c, src := range mix.Sources {
			seed := aloneRefSeed(src, opts.Seed, c)
			ipc := coldAloneIPC(t, src, seed, measure)
			cells = append(cells, aloneCell(lab, src, id.srcs[c], seed, measure))
			want = append(want, CellResult{Alone: ipc})
			horizons = append(horizons, measure)
		}
		for _, pol := range policies {
			cfg := base
			cfg.Cores = opts.Cores
			cfg.Policy = pol
			cfg.Seed = opts.Seed
			cfg.Forensics = ForensicsOptions{Enabled: opts.Forensics, Recorder: opts.Forensics && opts.ForensicsRecorder}
			cells = append(cells, simCell(lab, cfg, mix, id.wl, opts.Warmup, measure))
			want = append(want, coldCell(t, cfg, mix, opts.Warmup, measure))
			horizons = append(horizons, opts.Warmup+measure)
		}
	}
	got, st, err := lab.eng.Run(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	if st.Simulated != 0 {
		t.Fatalf("the sweep left oracle cells unresolved: %+v", st)
	}
	seen := map[string]bool{}
	var ticks uint64
	for i, c := range cells {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("cell %s diverged from a cold straight-through run:\nengine: %+v\ncold:   %+v", c.Key, got[i], want[i])
		}
		if !seen[c.Key] {
			seen[c.Key] = true
			ticks += uint64(horizons[i])
		}
	}
	return ticks
}

// TestPlannerDifferential proves every cell a fresh, checkpointing
// engine resolves is bit-identical to a cold straight-through run,
// across all six figure policies, and that the engine simulated each
// cell once, from tick zero to its horizon, resuming nothing.
func TestPlannerDifferential(t *testing.T) {
	ctx := context.Background()
	base := DefaultConfig()
	base.ChipCapacityGbit = 8
	policies := plannerTestPolicies()
	opts := Options{Workloads: 1, Cores: 4, Warmup: 2000, Measure: 6000, Seed: 5}

	var st EngineStats
	o := opts
	o.Stats = &st
	lab := NewEngine(EngineConfig{SnapInterval: 1500})
	if _, err := lab.RunPolicies(ctx, base, policies, o); err != nil {
		t.Fatal(err)
	}
	want := assertColdOracle(t, lab, base, policies, opts, opts.Measure)
	if st.ResumedTicks != 0 || st.SimulatedTicks != want {
		t.Fatalf("fresh sweep: %d simulated + %d resumed ticks, want %d simulated and none resumed (stats %+v)",
			st.SimulatedTicks, st.ResumedTicks, want, st)
	}
}

// TestPlannerDifferentialForensicsAndMitigation extends the differential
// to forensics-armed cells and mitigation-zoo policies, whose ledger and
// tracker state ride in their checkpoints: a fresh sweep matches cold
// runs, and extending it to a longer horizon resumes every simulated
// cell from its stored checkpoint. Every row, forensics summary
// included, must match a cold straight-through run exactly.
func TestPlannerDifferentialForensicsAndMitigation(t *testing.T) {
	ctx := context.Background()
	base := DefaultConfig()
	base.ChipCapacityGbit = 8
	policies := []RefreshPolicy{BaselinePolicy(), GraphenePolicy(128, 0), RFMPolicy(128, 0)}
	opts := Options{Workloads: 1, Cores: 2, Warmup: 1000, Measure: 4000, Seed: 3, Forensics: true, ForensicsRecorder: true}

	lab := NewEngine(EngineConfig{SnapInterval: 1000})
	if _, err := lab.RunPolicies(ctx, base, policies, opts); err != nil {
		t.Fatal(err)
	}
	assertColdOracle(t, lab, base, policies, opts, opts.Measure)

	var extended EngineStats
	eOpts := opts
	eOpts.Measure = 7000
	eOpts.Stats = &extended
	if _, err := lab.RunPolicies(ctx, base, policies, eOpts); err != nil {
		t.Fatal(err)
	}
	// Every simulated cell — the policies' sim cells and the cores'
	// alone references — resumed instead of starting at tick zero.
	if extended.Simulated < uint64(len(policies)) || extended.Resumed != extended.Simulated {
		t.Fatalf("extension resumed %d of %d simulated cells, want all: %+v",
			extended.Resumed, extended.Simulated, extended)
	}
	assertColdOracle(t, lab, base, policies, opts, eOpts.Measure)
}

// TestPlannerBatchCancellation proves batch-level cancellation
// semantics end to end: a cancelled sweep fails, but every row resolved
// before the cancellation stays cached and serves the resubmitted
// sweep, whose cells all match cold straight-through runs.
func TestPlannerBatchCancellation(t *testing.T) {
	base := DefaultConfig()
	base.ChipCapacityGbit = 8
	policies := plannerTestPolicies()
	e := NewEngine(EngineConfig{SnapInterval: 1000, Parallelism: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Workloads: 1, Cores: 2, Warmup: 1000, Measure: 4000, Seed: 2}
	cOpts := opts
	cOpts.Progress = func(done, total int, batch EngineStats) {
		if done >= 1 {
			cancel() // with Parallelism 1 at least one later cell must fail
		}
	}
	if _, err := e.RunPolicies(ctx, base, policies, cOpts); err == nil {
		t.Fatal("cancelled sweep reported success")
	}

	var again EngineStats
	rOpts := opts
	rOpts.Stats = &again
	if _, err := e.RunPolicies(context.Background(), base, policies, rOpts); err != nil {
		t.Fatal(err)
	}
	if again.CacheHits+again.StoreHits == 0 {
		t.Fatalf("cancellation kept no resolved rows: %+v", again)
	}
	assertColdOracle(t, e, base, policies, opts, opts.Measure)
}

// TestDeltaCheckpointChain proves the differential-checkpoint format
// end to end: interval saves after the first are deltas, a fresh
// checkpointer restores through the chain to state byte-identical to a
// straight run, and a sim cell resuming from the chain's tip
// reproduces a cold straight-through run's result exactly.
func TestDeltaCheckpointChain(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.ChipCapacityGbit = 8
	cfg.Seed = 1
	cfg.Policy = BaselinePolicy()
	mix := workload.Mixes(1, 2, 1)[0].Sources()
	lab := NewEngine(EngineConfig{SnapInterval: 1000})
	snaps := lab.snaps
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
	tip, ok := snaps.Load(ck.key, 5000)
	if !ok {
		t.Fatal("chain tip at tick 5000 not stored")
	}
	sys2, depth, err := ck2.restoreChain(cfg, mix, 5000, tip)
	if err != nil || sys2.Ticks() != 5000 || depth != 4 {
		t.Fatalf("chain restore = (depth %d, err %v), want tick 5000 at depth 4", depth, err)
	}
	if _, ok := ck2.loadMark(cfg.Cores, 2000); !ok {
		t.Fatal("warmup mark not recovered from delta checkpoint header")
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

	// A sim cell resumes from the chain tip and its warmup mark, extends
	// the delta chain, and returns the cold result.
	got, err := runSimCell(ctx, lab, cfg, mix, identify(mix).wl, 2000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if st := snaps.Stats(); st.Hits != 1 || st.DeltaSaves != 5 {
		t.Fatalf("cell did not resume from and extend the chain: %+v", st)
	}
	if cold := coldCell(t, cfg, mix, 2000, 4000); !reflect.DeepEqual(got, cold) {
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
	// maxDeltaChain+4 interval saves: full at 500, deltas to the chain
	// cap, then a forced full and fresh deltas after it.
	saves := maxDeltaChain + 4
	end := saves * 500
	if err := ck.runTo(ctx, sys, end); err != nil {
		t.Fatal(err)
	}
	st := snaps.Stats()
	fulls := st.Saves - st.DeltaSaves
	if fulls != 2 {
		t.Fatalf("want 2 full checkpoints in a %d-save run (chain cap %d), got %d", saves, maxDeltaChain, fulls)
	}
	// The chain past the forced full restores to a straight run's state.
	ck2 := &checkpointer{snaps: snaps, interval: 500, key: ck.key}
	tip, ok := snaps.Load(ck.key, end)
	if !ok {
		t.Fatalf("chain tip at tick %d not stored", end)
	}
	sys2, depth, err := ck2.restoreChain(cfg, mix, end, tip)
	if err != nil || depth != 2 {
		t.Fatalf("restore across the forced-full boundary = (depth %d, err %v), want depth 2", depth, err)
	}
	ref, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunTo(ctx, end); err != nil {
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
		t.Fatal("state restored across the forced full diverged from straight run")
	}
}

// TestDeltaSnapshotPreSized pins the buffer contract for both
// checkpoint formats, on a plain system and on attack cells (Graphene
// with the forensics ledger and flight recorder, RFM with the ledger
// alone): the buffer a checkpoint retains is exactly its length (the
// store keeps it as is, and accounts its capacity), and once the
// system's scratch writer is warm, encoding allocates at most twice
// (in practice once: the returned copy).
func TestDeltaSnapshotPreSized(t *testing.T) {
	ctx := context.Background()
	plain := DefaultConfig()
	plain.Cores = 4
	plain.Policy = BaselinePolicy()
	graphene := DefaultConfig()
	graphene.Policy = GraphenePolicy(64, 0)
	graphene.Forensics = ForensicsOptions{Enabled: true, Recorder: true}
	rfm := DefaultConfig()
	rfm.Policy = RFMPolicy(64, 0)
	rfm.Forensics = ForensicsOptions{Enabled: true}
	for _, c := range []struct {
		name       string
		cfg        Config
		base, tick int
	}{
		{"plain", plain, 3000, 4000},
		{"attack-graphene-recorder", graphene, 30000, 40000},
		{"attack-rfm-forensics", rfm, 30000, 40000},
	} {
		cfg := c.cfg
		cfg.ChipCapacityGbit = 8
		cfg.Seed = 1
		mix := workload.Mixes(1, cfg.Cores, 1)[0].Sources()
		if cfg.Forensics.Enabled {
			var err error
			if mix, err = attackMix("double", OrgFor(cfg), mix); err != nil {
				t.Fatal(err)
			}
		}
		sys, err := NewSystem(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RunTo(ctx, c.base); err != nil {
			t.Fatal(err)
		}
		sys.ResetTouchedLines()
		if err := sys.RunTo(ctx, c.tick); err != nil {
			t.Fatal(err)
		}
		formats := []struct {
			name   string
			encode func() ([]byte, error)
		}{
			{"full", sys.Snapshot},
			{"delta", func() ([]byte, error) { return sys.SnapshotDelta(c.base, 1) }},
		}
		for _, f := range formats {
			data, err := f.encode()
			if err != nil {
				t.Fatal(err)
			}
			if cap(data) != len(data) {
				t.Fatalf("%s %s: %d-byte checkpoint retains a %d-byte buffer, want exact",
					c.name, f.name, len(data), cap(data))
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := f.encode(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 2 {
				t.Fatalf("%s %s: encode allocated %v times, want <= 2 after a warm-up encode", c.name, f.name, allocs)
			}
		}
	}
}

// FuzzDeltaSnapshotDecode holds the delta-apply path to the clean-miss
// contract: corrupt, truncated, or mis-chained delta checkpoints are
// rejected with an error — never a panic, never silently wrong state —
// and any delta that does apply yields a machine that survives running.
// Seeds cover every system of fuzzSnapshotSystems (the zoo engines, the
// forensics ledger and recorder, and the attacker stream), with ledger
// bytes corrupted and truncated.
func FuzzDeltaSnapshotDecode(f *testing.F) {
	systems := fuzzSnapshotSystems(f)
	bases := make([][]byte, len(systems)) // trusted bases at tick 6000
	for i, fs := range systems {
		sys, err := NewSystem(fs.cfg, fs.mix)
		if err != nil {
			f.Fatal(err)
		}
		if err := sys.RunTo(context.Background(), 6000); err != nil {
			f.Fatal(err)
		}
		base, err := sys.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		bases[i] = base
		sys.ResetTouchedLines()
		if err := sys.RunTo(context.Background(), 9000); err != nil {
			f.Fatal(err)
		}
		delta, err := sys.SnapshotDelta(6000, 1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(delta)
		f.Add(delta[:len(delta)/2])
		f.Add(corruptSeeds(delta, len(delta)/3)[0])
		if i == 0 {
			mischained, err := sys.SnapshotDelta(4500, 2) // base tick no restored machine sits at
			if err != nil {
				f.Fatal(err)
			}
			f.Add(mischained)
			f.Add([]byte(deltaMagic))
			for _, old := range legacyDeltaMagics {
				f.Add(withMagic(delta, old))
			}
			continue
		}
		end := ledgerEnd(sys, delta)
		f.Add(delta[:end-2])
		for _, mut := range corruptSeeds(delta, end-1, end-4, end-9, end-30) {
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Real deltas for these configs are tens of KB; cap mutator-grown
		// inputs so each exec stays fast (decode work is input-bounded
		// but a multi-MB queue section decodes in ordered-insert time).
		if len(data) > 256<<10 {
			return
		}
		// Header validation is the cheap gate most hostile inputs die at;
		// only header-valid deltas of a known trajectory pay for
		// restoring its trusted base.
		key, _, _, _, err := readDeltaHeader(data)
		if err != nil {
			return // clean miss
		}
		for i, fs := range systems {
			if trajectoryKey(fs.cfg, identify(fs.mix).wl) != key {
				continue
			}
			s, err := RestoreSystem(fs.cfg, fs.mix, bases[i])
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
		}
	})
}
