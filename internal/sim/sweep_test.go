package sim

import (
	"context"
	"reflect"
	"testing"

	"hira/internal/workload"
)

// TestFiguresMatchPerPointRuns is the differential check on figure
// submission. Each figure runs every sweep point as one engine batch;
// its rows must DeepEqual rows assembled from one Engine.RunPolicies
// call per point on another fresh engine, and its progress must be one
// bar: a constant total equal to every cell the engine was handed, a
// done count that never goes down, ending at the total.
func TestFiguresMatchPerPointRuns(t *testing.T) {
	ctx := context.Background()
	opts := Options{Workloads: 2, Cores: 4, Warmup: 1000, Measure: 3000, Seed: 3}
	fresh := func() *Engine { return NewEngine(EngineConfig{Parallelism: 2}) }
	// point runs one sweep point on its own batch.
	point := func(t *testing.T, e *Engine, base Config, policies []RefreshPolicy, o Options) []PolicyScore {
		t.Helper()
		scores, err := e.RunPolicies(ctx, base, policies, o)
		if err != nil {
			t.Fatal(err)
		}
		return scores
	}

	caps, nrhs, xs := []int{8, 32}, []int{64, 256}, []int{1, 2}
	attacks := []string{"double", "decoy"}
	cases := []struct {
		name     string
		spec     FigureSpec
		rows     func(*FigureResult) any
		perPoint func(t *testing.T, e *Engine) any
	}{
		{"fig9", FigureSpec{Kind: "fig9", Capacities: caps},
			func(res *FigureResult) any { return res.Fig9 },
			func(t *testing.T, e *Engine) any {
				var rows []Fig9Row
				for _, cap := range caps {
					base := DefaultConfig()
					base.ChipCapacityGbit = cap
					rows = append(rows, fig9Row(cap, point(t, e, base, fig9Policies(0), opts)))
				}
				return rows
			}},
		{"fig12", FigureSpec{Kind: "fig12", NRHs: nrhs},
			func(res *FigureResult) any { return res.Fig12 },
			func(t *testing.T, e *Engine) any {
				var rows []Fig12Row
				for _, nrh := range nrhs {
					rows = append(rows, fig12Row(nrh, point(t, e, DefaultConfig(), fig12Policies(nrh), opts)))
				}
				return rows
			}},
		{"fig15", FigureSpec{Kind: "fig15", Xs: xs, NRHs: nrhs},
			func(res *FigureResult) any { return res.Scale },
			func(t *testing.T, e *Engine) any {
				var rows []ScaleRow
				for _, nrh := range nrhs {
					for _, x := range xs {
						rows = append(rows, scaleRow(x, nrh, point(t, e, scaleConfig(x, 8, true), paraScalePolicies(nrh), opts)))
					}
				}
				return rows
			}},
		{"attack", FigureSpec{Kind: "attack", Attacks: attacks, NRHs: nrhs},
			func(res *FigureResult) any { return res.Attack },
			func(t *testing.T, e *Engine) any {
				var rows []AttackRow
				benign := workload.Mixes(1, opts.Cores, opts.Seed)[0].Sources()
				for _, kind := range attacks {
					mix, err := attackMix(kind, OrgFor(DefaultConfig()), benign)
					if err != nil {
						t.Fatal(err)
					}
					o := opts
					o.Mixes = []workload.SourceMix{mix}
					o.Forensics = true
					for _, nrh := range nrhs {
						rows = append(rows, attackRow(kind, nrh, point(t, e, DefaultConfig(), attackSweepPolicies(nrh), o)))
					}
				}
				return rows
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var dones, totals []int
			o := opts
			o.Progress = func(done, total int, _ EngineStats) {
				dones = append(dones, done)
				totals = append(totals, total)
			}
			e := fresh()
			res, err := e.RunFigure(ctx, o, c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := c.rows(res), c.perPoint(t, fresh()); !reflect.DeepEqual(got, want) {
				t.Fatalf("one-batch rows differ from per-point rows:\nbatched:   %+v\nper point: %+v", got, want)
			}

			submitted := int(e.Stats().Submitted)
			if len(dones) == 0 || dones[len(dones)-1] != submitted {
				t.Fatalf("progress ended at %v of %d submitted cells", dones, submitted)
			}
			for i := range dones {
				if totals[i] != submitted {
					t.Fatalf("progress event %d has total %d, want the request's %d cells in one batch", i, totals[i], submitted)
				}
				if i > 0 && dones[i] < dones[i-1] {
					t.Fatalf("progress went down: done %d after %d", dones[i], dones[i-1])
				}
			}
		})
	}
}

// TestProgressEndsWithRunTally checks what a progress consumer sees
// last against what the run returns, cold, cache-warm, store-warm and
// extended over checkpoints: the last Progress call has done == total ==
// Submitted, and its tally is the returned Stats, resume and tick
// counts included, and accounts for every submitted cell (Simulated +
// CacheHits + StoreHits + Deduped == Submitted).
func TestProgressEndsWithRunTally(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// Fig. 12's Baseline repeats at every NRH, so each Fig. 12 run dedups
	// too.
	fig12 := FigureSpec{Kind: "fig12", NRHs: []int{64, 256}}
	fig9 := FigureSpec{Kind: "fig9"}
	o := Options{Workloads: 1, Cores: 2, Warmup: 1000, Measure: 2000, Seed: 5}
	// A store indexes its directory when its engine is built, so the
	// store-warm engine is built after the cold run filled it.
	first := NewEngine(EngineConfig{Parallelism: 2, ResultDir: dir})
	for _, run := range []struct {
		name string
		e    func(t *testing.T) *Engine
		spec FigureSpec
		// measure overrides o.Measure when set.
		measure int
		// dedups says the batch repeats a key, as Fig. 12's does.
		dedups bool
		// want names the counter that must resolve every unique key.
		want func(EngineStats) uint64
		// resumes says every sim cell of the batch resumes from a
		// checkpoint; no other run resumes any.
		resumes bool
	}{
		{name: "cold", e: func(*testing.T) *Engine { return first }, spec: fig12, dedups: true,
			want: func(st EngineStats) uint64 { return st.Simulated }},
		{name: "cache-warm", e: func(*testing.T) *Engine { return first }, spec: fig12, dedups: true,
			want: func(st EngineStats) uint64 { return st.CacheHits }},
		{name: "store-warm", e: func(*testing.T) *Engine { return NewEngine(EngineConfig{Parallelism: 2, ResultDir: dir}) },
			spec: fig12, dedups: true, want: func(st EngineStats) uint64 { return st.StoreHits }},
		// A one-mix Fig. 9 run at 2000 measured ticks and then extended to
		// 4000: every key of the extension simulates, its sim cells
		// resuming from a checkpoint and its alone references from tick
		// zero.
		{name: "checkpoint-extend", e: func(t *testing.T) *Engine {
			e := NewEngine(EngineConfig{Parallelism: 2, SnapInterval: 1000})
			if _, err := e.RunFigure(ctx, o, fig9); err != nil {
				t.Fatal(err)
			}
			return e
		}, spec: fig9, measure: 4000, want: func(st EngineStats) uint64 { return st.Simulated }, resumes: true},
	} {
		t.Run(run.name, func(t *testing.T) {
			var calls, lastDone, lastTotal int
			var last EngineStats
			ro := o
			if run.measure != 0 {
				ro.Measure = run.measure
			}
			ro.Progress = func(done, total int, batch EngineStats) {
				calls++
				lastDone, lastTotal, last = done, total, batch
			}
			res, err := run.e(t).RunFigure(ctx, ro, run.spec)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if calls == 0 || lastDone != lastTotal || uint64(lastTotal) != st.Submitted {
				t.Fatalf("last progress call %d/%d after %d calls, want done == total == %d submitted", lastDone, lastTotal, calls, st.Submitted)
			}
			if sum := last.Simulated + last.CacheHits + last.StoreHits + last.Deduped; sum != last.Submitted {
				t.Errorf("last tally accounts for %d of %d submitted cells: %+v", sum, last.Submitted, last)
			}
			if (run.dedups && st.Deduped == 0) || run.want(st) != st.Submitted-st.Deduped {
				t.Errorf("%s run resolved %d of %d unique keys the expected way: %+v", run.name, run.want(st), st.Submitted-st.Deduped, st)
			}
			var wantResumed int64
			if run.resumes {
				if wantResumed, err = FigureCells(run.spec, ro); err != nil {
					t.Fatal(err)
				}
			}
			if st.Resumed != uint64(wantResumed) {
				t.Errorf("%s run resumed %d cells, want %d: %+v", run.name, st.Resumed, wantResumed, st)
			}
			if last != st {
				t.Errorf("last progress tally %+v differs from the returned stats %+v", last, st)
			}
		})
	}
}

// TestFigureCellsMatchBatch checks the cost estimate against the real
// traffic: for every figure-table entry at its default grids, the cells
// FigureCells counts (what the service's cost bound multiplies by ticks)
// must equal the simulation cells of the batch the figure submits.
func TestFigureCellsMatchBatch(t *testing.T) {
	opts := Options{Workloads: 3, Cores: 4, Measure: 3000}
	for _, kind := range FigureKinds() {
		t.Run(kind, func(t *testing.T) {
			spec := FigureSpec{Kind: kind}
			cells, err := FigureCells(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			r, err := spec.resolve(opts)
			if err != nil {
				t.Fatal(err)
			}
			points, err := r.points(NewEngine(EngineConfig{}))
			if err != nil {
				t.Fatal(err)
			}
			var sims int64
			for _, c := range newSweepBatch(nil, r.opts, points).cells {
				if !c.alone {
					sims++
				}
			}
			if cells != sims || cells == 0 {
				t.Fatalf("FigureCells counts %d cells; the submitted batch has %d simulation cells", cells, sims)
			}
		})
	}
}
