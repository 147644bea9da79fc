package sim

// Cache-aliasing regression suite: the engine's content-addressed store
// must never serve one workload's cells for another. Two workloads
// differing in any single profile field — or in a single trace access —
// must produce distinct cell keys and simulate separately even on a
// shared engine with a warm store.

import (
	"context"
	"testing"

	"hira/internal/workload"
)

// oneCoreMix wraps a single source as a one-core mix.
func oneCoreMix(src workload.Source) workload.SourceMix {
	return workload.SourceMix{ID: 0, Sources: []workload.Source{src}}
}

func TestCellKeyDistinguishesProfileFields(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	base := workload.Profile{Name: "w", MPKI: 10, RowLocality: 0.5, FootprintMB: 64, WriteFrac: 0.25}
	baseKey := simCellKey(cfg, identify(oneCoreMix(base)).wl, 100, 200)

	variants := map[string]workload.Profile{}
	v := base
	v.Name = "w2"
	variants["name"] = v
	v = base
	v.MPKI = 10.01
	variants["mpki"] = v
	v = base
	v.RowLocality = 0.501
	variants["row locality"] = v
	v = base
	v.FootprintMB = 65
	variants["footprint"] = v
	v = base
	v.WriteFrac = 0.251
	variants["write fraction"] = v

	for field, p := range variants {
		if key := simCellKey(cfg, identify(oneCoreMix(p)).wl, 100, 200); key == baseKey {
			t.Errorf("changing only the %s field kept cell key %q", field, key)
		}
		if key := aloneCellKey(p.Key(), 1, 200); key == aloneCellKey(base.Key(), 1, 200) {
			t.Errorf("changing only the %s field kept the alone cell key %q", field, key)
		}
	}
}

func TestCellKeyDistinguishesTraceContent(t *testing.T) {
	p, _ := workload.ProfileByName("mcf")
	tr, err := workload.Record("t", p, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	mod := append([]workload.Access(nil), tr.Accesses()...)
	mod[100].Write = !mod[100].Write
	tr2, err := workload.NewTrace("t", mod)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Cores = 1
	k1 := simCellKey(cfg, identify(oneCoreMix(tr)).wl, 100, 200)
	k2 := simCellKey(cfg, identify(oneCoreMix(tr2)).wl, 100, 200)
	if k1 == k2 {
		t.Fatalf("one-access trace change kept cell key %q", k1)
	}
	// A trace must also never alias a profile, and the key must be
	// digest-based so a renamed copy of the same bytes shares cells.
	if k1 == simCellKey(cfg, identify(oneCoreMix(p)).wl, 100, 200) {
		t.Error("trace workload aliases the profile it was recorded from")
	}
	renamed, err := workload.NewTrace("other", tr.Accesses())
	if err != nil {
		t.Fatal(err)
	}
	if simCellKey(cfg, identify(oneCoreMix(renamed)).wl, 100, 200) != k1 {
		t.Error("renaming a trace changed its cell key")
	}
}

// TestTraceAloneCellSharedAcrossCores: the converse guarantee — a
// seed-invariant trace dealt to several cores must share ONE alone-IPC
// reference cell (its stream ignores the per-core seed), while profile
// sources keep per-core seeds and separate cells.
func TestTraceAloneCellSharedAcrossCores(t *testing.T) {
	p, _ := workload.ProfileByName("mcf")
	tr, err := workload.Record("t", p, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	if aloneRefSeed(tr, 1, 0) != aloneRefSeed(tr, 1, 3) {
		t.Error("trace alone cells keyed per core despite seed-invariant stream")
	}
	if aloneRefSeed(p, 1, 0) == aloneRefSeed(p, 1, 3) {
		t.Error("profile alone cells lost their per-core seeds")
	}

	// Behavioral check: one mix of the same trace on two cores resolves
	// exactly two cells — one shared alone reference plus the sim cell.
	var stats EngineStats
	cfg := DefaultConfig()
	cfg.Cores = 2
	opts := Options{
		Cores: 2, Warmup: 500, Measure: 1500, Seed: 1,
		Mixes: []workload.SourceMix{{ID: 0, Sources: []workload.Source{tr, tr}}},
		Stats: &stats,
	}
	if _, err := RunPolicies(context.Background(), cfg, []RefreshPolicy{BaselinePolicy()}, opts); err != nil {
		t.Fatal(err)
	}
	if stats.Simulated != 2 {
		t.Errorf("same-trace two-core mix simulated %d cells, want 2 (shared alone + sim): %+v", stats.Simulated, stats)
	}
}

// TestNearIdenticalWorkloadsNeverShareCells runs two single-field-apart
// workloads through one shared engine with a warm store and asserts the
// second run simulates its own cells (no cache/store hits), while an
// exact resubmission is served entirely without simulation.
func TestNearIdenticalWorkloadsNeverShareCells(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(EngineConfig{Parallelism: 2, ResultDir: t.TempDir()})
	base := workload.Profile{Name: "w", MPKI: 20, RowLocality: 0.5, FootprintMB: 8, WriteFrac: 0.25}
	tweaked := base
	tweaked.MPKI = 20.5

	run := func(p workload.Profile) EngineStats {
		var stats EngineStats
		opts := Options{
			Cores: 1, Warmup: 500, Measure: 1500, Seed: 1,
			Mixes: []workload.SourceMix{oneCoreMix(p)},
			Stats: &stats,
		}
		if _, err := eng.RunPolicies(ctx, DefaultConfig(), []RefreshPolicy{BaselinePolicy()}, opts); err != nil {
			t.Fatal(err)
		}
		return stats
	}

	first := run(base)
	if first.Simulated == 0 {
		t.Fatal("cold run simulated nothing")
	}
	second := run(tweaked)
	if second.Simulated != second.Submitted || second.CacheHits+second.StoreHits != 0 {
		t.Fatalf("near-identical workload shared cells with the original: %+v", second)
	}
	resubmit := run(base)
	if resubmit.Simulated != 0 {
		t.Fatalf("exact resubmission re-simulated %d cells: %+v", resubmit.Simulated, resubmit)
	}
}
