package sim

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"hira/internal/workload"
)

// TestForensicsFiguresBitIdentical proves the sweep-level contract: a
// figure run with forensics (and the flight recorder) enabled yields
// exactly the same performance rows as one without — the only difference
// is the attached Forensics maps. The sched-level differential proves the
// command stream is untouched; this pins the whole pipeline through the
// engine, cells, and row constructors.
func TestForensicsFiguresBitIdentical(t *testing.T) {
	ctx := context.Background()
	spec := FigureSpec{Kind: "fig9", Capacities: []int{2, 8}}
	plainRes, err := RunFigure(ctx, goldenOpts(), spec)
	if err != nil {
		t.Fatal(err)
	}
	o := goldenOpts()
	o.Forensics = true
	o.ForensicsRecorder = true
	fxRes, err := RunFigure(ctx, o, spec)
	if err != nil {
		t.Fatal(err)
	}
	plain, fx := plainRes.Fig9, fxRes.Fig9
	if len(fx) != len(plain) {
		t.Fatalf("row counts diverged: %d vs %d", len(fx), len(plain))
	}
	for i := range plain {
		if plain[i].Forensics != nil {
			t.Errorf("row %d: forensics attached without Options.Forensics", i)
		}
		got := fx[i]
		if got.Forensics == nil {
			t.Fatalf("row %d: no forensics despite Options.Forensics", i)
		}
		got.Forensics = nil
		if !reflect.DeepEqual(got, plain[i]) {
			t.Errorf("row %d performance data diverged with forensics on:\noff: %+v\non:  %+v",
				i, plain[i], got)
		}
	}

	// Every policy of every row carries a summary obeying the accounting
	// identity, and plain-JSON encoding of the forensics-off rows carries
	// no forensics keys (golden fixtures stay byte-identical).
	for i, r := range fx {
		for name, f := range r.Forensics {
			tl := f.Tally
			if got := tl.PreventiveUseful + tl.PreventiveWasted + tl.PeriodicRowRefreshes; got != tl.RefreshACTs {
				t.Errorf("row %d %s: useful+wasted+periodic = %d, want RefreshACTs = %d",
					i, name, got, tl.RefreshACTs)
			}
			if tl.DemandACTs == 0 {
				t.Errorf("row %d %s: no demand ACTs recorded", i, name)
			}
			if f.MaxInterrefACTs == 0 {
				t.Errorf("row %d %s: MaxInterrefACTs = 0", i, name)
			}
		}
	}
	data, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "forensics") {
		t.Error("forensics-off rows leak forensics keys into JSON")
	}
}

// TestForensicsCellsSeparatelyKeyed checks that forensics runs never
// alias plain engine cells: the same sweep with and without forensics
// must produce distinct cell keys, and a forensics cell replayed from the
// store must still carry its summary.
func TestForensicsCellsSeparatelyKeyed(t *testing.T) {
	cfg := DefaultConfig()
	mix := workload.SourceMix{}
	plain := simCellKey(cfg, identify(mix).wl, 100, 200)
	cfg.Forensics = ForensicsOptions{Enabled: true}
	fx := simCellKey(cfg, identify(mix).wl, 100, 200)
	cfg.Forensics.Recorder = true
	rec := simCellKey(cfg, identify(mix).wl, 100, 200)
	if plain == fx || fx == rec || plain == rec {
		t.Fatalf("cell keys alias across forensics modes:\nplain: %s\nfx:    %s\nrec:   %s", plain, fx, rec)
	}

	// Same engine, same sweep twice: the second run must be served from
	// cache and still carry forensics summaries.
	eng := NewEngine(EngineConfig{})
	opts := goldenOpts()
	opts.Forensics = true
	ctx := context.Background()
	base := DefaultConfig()
	pols := []RefreshPolicy{PARAPolicy(1024)}
	first, err := eng.RunPolicies(ctx, base, pols, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.RunPolicies(ctx, base, pols, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Forensics == nil || second[0].Forensics == nil {
		t.Fatal("policy score missing forensics summary")
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached forensics run diverged from the cold run")
	}
}
