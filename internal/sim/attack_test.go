package sim

// Attack-sweep suite: the attack×mitigation grid must (a) demonstrate a
// successful attack in the forensics ledger when nothing defends, (b)
// show the zoo engines preventing it, (c) never alias mitigation cells
// with unmitigated ones in the content-addressed store, and (d)
// checkpoint the zoo engines' tracker state and the attacker's stream
// position like any other system state.

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"hira/internal/core"
	"hira/internal/workload"
)

// TestAttackSweepEfficacy is the PR's headline acceptance check, at the
// sim layer: a double-sided hammer against the no-defense Baseline
// drives some victim's exposure past NRH (a successful attack, visible
// in the ledger), while Graphene holds every victim below it — and both
// verdicts come from the same sweep row the service and CLIs report.
func TestAttackSweepEfficacy(t *testing.T) {
	const nrh = 64
	res, err := RunFigure(context.Background(), Options{Cores: 2, Seed: 7},
		FigureSpec{Kind: "attack", Attacks: []string{"double"}, NRHs: []int{nrh}})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Attack
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	row := rows[0]
	if row.Attack != "double" || row.NRH != nrh {
		t.Fatalf("row is (%s, %d), want (double, %d)", row.Attack, row.NRH, nrh)
	}
	for _, name := range []string{"Baseline", "PARA", "Graphene", "RFM"} {
		if _, ok := row.WS[name]; !ok {
			t.Errorf("no weighted speedup for %s", name)
		}
		if row.Forensics[name] == nil {
			t.Errorf("no forensics summary for %s (attack cells must run the ledger)", name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	if n := row.NormBaseline["Baseline"]; n != 1 {
		t.Errorf("Baseline normalized to itself is %v, want 1", n)
	}

	// Thresholds derive from the row's NRH: [NRH/2, NRH], so index 1 of
	// VictimCrossings counts full NRH crossings.
	base := row.Forensics["Baseline"]
	if base.MaxVictimExposure <= nrh {
		t.Errorf("unmitigated double-sided attack peaked at exposure %d, want > NRH %d",
			base.MaxVictimExposure, nrh)
	}
	if base.Tally.VictimCrossings[1] == 0 {
		t.Error("unmitigated attack registered no NRH victim crossings in the ledger")
	}

	g := row.Forensics["Graphene"]
	if g.MaxVictimExposure >= nrh {
		t.Errorf("Graphene let a victim reach exposure %d, want < NRH %d",
			g.MaxVictimExposure, nrh)
	}
	if g.Tally.VictimCrossings[1] != 0 {
		t.Errorf("Graphene cell registered %d NRH victim crossings, want 0",
			g.Tally.VictimCrossings[1])
	}
}

// TestMitigationCellKeyAliasing: mitigation cells must be distinct
// store entries — from unmitigated cells, from each other, and across
// their own tuning parameters.
func TestMitigationCellKeyAliasing(t *testing.T) {
	p, _ := workload.ProfileByName("mcf")
	mix := oneCoreMix(p)
	key := func(pol RefreshPolicy) (cell, traj string) {
		cfg := DefaultConfig()
		cfg.Cores = 1
		cfg.Policy = pol
		return simCellKey(cfg, identify(mix).wl, 100, 200), trajectoryKey(cfg, identify(mix).wl)
	}

	baseCell, baseTraj := key(BaselinePolicy())
	if strings.Contains(baseCell, "mit=") || strings.Contains(baseTraj, "mit=") {
		t.Fatal("unmitigated keys grew a mit= field; pre-mitigation cells would be invalidated")
	}

	variants := map[string]RefreshPolicy{
		"graphene":          GraphenePolicy(64, 16),
		"graphene-counters": GraphenePolicy(64, 32),
		"rfm":               RFMPolicy(64, 8),
		"rfm-raaimt":        RFMPolicy(64, 16),
	}
	cells := map[string]string{"baseline": baseCell}
	trajs := map[string]string{"baseline": baseTraj}
	for name, pol := range variants {
		cell, traj := key(pol)
		for other, k := range cells {
			if k == cell {
				t.Errorf("%s aliases %s's sim cell key %q", name, other, k)
			}
		}
		for other, k := range trajs {
			if k == traj {
				t.Errorf("%s aliases %s's trajectory key %q", name, other, k)
			}
		}
		cells[name], trajs[name] = cell, traj
	}
}

// TestMitigationCellsCheckpoint: a zoo engine's tracker state, the
// attacker's stream position and the forensics ledger all ride in the
// checkpoint. Under a live double-sided hammer (so the trackers have
// tripped and queued victims), a restored system re-encodes to the
// snapshot's exact bytes and carries the engine's tallies.
func TestMitigationCellsCheckpoint(t *testing.T) {
	for _, pol := range []RefreshPolicy{GraphenePolicy(64, 8), RFMPolicy(64, 8)} {
		cfg := DefaultConfig()
		cfg.Cores = 2
		cfg.Policy = pol
		cfg.Forensics = ForensicsOptions{Enabled: true, Recorder: true}
		mix, err := attackMix("double", OrgFor(cfg), workload.Mixes(1, 2, 1)[0].Sources())
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSystem(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunTo(context.Background(), 20000); err != nil {
			t.Fatal(err)
		}
		data, err := s.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", pol.Name, err)
		}
		r, err := RestoreSystem(cfg, mix, data)
		if err != nil {
			t.Fatalf("%s: restore: %v", pol.Name, err)
		}
		again, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("%s: restored system re-encoded to different bytes", pol.Name)
		}
		type tallied interface{ Stats() core.MitigationStats }
		st := s.engine.(tallied).Stats()
		if st.Triggers == 0 {
			t.Fatalf("%s: the hammer never tripped the tracker; the checkpoint holds no tracker state", pol.Name)
		}
		if got := r.engine.(tallied).Stats(); got != st {
			t.Fatalf("%s: restored tallies %+v, want %+v", pol.Name, got, st)
		}
	}
}

// TestAttackSweepResumeExtension extends an attack grid from a 60k- to
// a 120k-tick horizon on one checkpointing engine: every sim cell of
// the extension — forensics ledger, Graphene and RFM trackers and
// attacker streams all restored from the 60k grid's checkpoints —
// resumes instead of starting at tick zero, only the alone-IPC
// references re-simulate, and the extended rows, forensics summaries
// included, equal a fresh engine's cold run.
func TestAttackSweepResumeExtension(t *testing.T) {
	ctx := context.Background()
	attacks := []string{"double", "many", "refsync"}
	opts := Options{Cores: 4, Warmup: 15000, Measure: 45000}
	e := NewEngine(EngineConfig{SnapInterval: 10000})
	if _, err := e.AttackSweep(ctx, opts, attacks, nil); err != nil {
		t.Fatal(err)
	}
	var st EngineStats
	ext := opts
	ext.Measure = 105000
	ext.Stats = &st
	got, err := e.AttackSweep(ctx, ext, attacks, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Alone references: one per attacker, plus the benign co-runners
	// every attack mix shares.
	simCells := uint64(len(attacks) * len(AttackNRHValues()) * len(attackSweepPolicies(0)))
	aloneCells := uint64(len(attacks) + opts.Cores - 1)
	if st.Resumed != simCells || st.Simulated != simCells+aloneCells {
		t.Fatalf("extension resumed %d of %d simulated cells, want %d of %d (%d sim + %d alone cells): %+v",
			st.Resumed, st.Simulated, simCells, simCells+aloneCells, simCells, aloneCells, st)
	}
	ext.Stats = nil
	want, err := NewEngine(EngineConfig{}).AttackSweep(ctx, ext, attacks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed extension rows diverged from a cold run:\nresumed: %+v\ncold:    %+v", got, want)
	}
	for _, row := range got {
		if len(row.Forensics) == 0 {
			t.Fatalf("%s/%d row carries no forensics summaries", row.Attack, row.NRH)
		}
	}
}
