package sim

// Attack-sweep suite: the attack×mitigation grid must (a) demonstrate a
// successful attack in the forensics ledger when nothing defends, (b)
// show the zoo engines preventing it, (c) never alias mitigation cells
// with unmitigated ones in the content-addressed store, and (d) refuse
// to checkpoint systems whose refresh engine carries transient tracker
// state.

import (
	"context"
	"strings"
	"testing"

	"hira/internal/workload"
)

// TestAttackSweepEfficacy is the PR's headline acceptance check, at the
// sim layer: a double-sided hammer against the no-defense Baseline
// drives some victim's exposure past NRH (a successful attack, visible
// in the ledger), while Graphene holds every victim below it — and both
// verdicts come from the same sweep row the service and CLIs report.
func TestAttackSweepEfficacy(t *testing.T) {
	const nrh = 64
	rows, err := AttackSweep(context.Background(),
		Options{Cores: 2, Seed: 7}, []string{"double"}, []int{nrh})
	if err != nil {
		t.Fatal(err)
	}
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

// TestMitigationCellsDoNotCheckpoint: the zoo engines' tracker state is
// deliberately transient, so systems running them must refuse Snapshot
// with a clear error instead of writing a checkpoint that restores to a
// defenseless tracker.
func TestMitigationCellsDoNotCheckpoint(t *testing.T) {
	p, _ := workload.ProfileByName("mcf")
	for _, pol := range []RefreshPolicy{GraphenePolicy(64, 8), RFMPolicy(64, 8)} {
		cfg := DefaultConfig()
		cfg.Cores = 1
		cfg.Policy = pol
		s, err := NewSystem(cfg, oneCoreMix(p))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Snapshot(); err == nil {
			t.Errorf("%s system snapshotted; want a not-checkpointable error", pol.Name)
		} else if !strings.Contains(err.Error(), "not checkpointable") {
			t.Errorf("%s snapshot error %q does not name the capability", pol.Name, err)
		}
	}
}
