package service

import (
	"context"
	"strings"
	"testing"
)

// TestAttackJob runs an attack×mitigation sweep job end to end: the
// result must carry per-point efficacy metrics showing the unmitigated
// double-sided attack crossing NRH while Graphene holds every victim
// below it, and the forensics endpoint must aggregate all four zoo
// policies — without the spec asking for forensics (attack cells always
// run the ledger).
func TestAttackJob(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	const nrh = 64
	job, err := client.Run(ctx, JobSpec{
		Kind:    KindAttack,
		Attacks: []string{"double"},
		NRHs:    []int{nrh},
		Sim:     &SimSpec{Cores: 2, Warmup: 20000, Measure: 60000, Seed: 7},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone {
		t.Fatalf("job state = %s (%s)", job.State, job.Error)
	}

	res, err := job.FigureResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindAttack || len(res.Attack) != 1 {
		t.Fatalf("result kind %q with %d attack rows, want %q with 1", res.Kind, len(res.Attack), KindAttack)
	}
	row := res.Attack[0]
	if row.Attack != "double" || row.NRH != nrh {
		t.Fatalf("row is (%s, %d), want (double, %d)", row.Attack, row.NRH, nrh)
	}
	for _, name := range []string{"Baseline", "PARA", "Graphene", "RFM"} {
		if _, ok := row.WS[name]; !ok {
			t.Errorf("row carries no weighted speedup for %s", name)
		}
		if row.Forensics[name] == nil {
			t.Fatalf("row carries no forensics for %s", name)
		}
	}
	if base := row.Forensics["Baseline"]; base.MaxVictimExposure <= nrh {
		t.Errorf("unmitigated attack peaked at exposure %d, want > NRH %d", base.MaxVictimExposure, nrh)
	}
	if g := row.Forensics["Graphene"]; g.MaxVictimExposure >= nrh {
		t.Errorf("Graphene let a victim reach exposure %d, want < NRH %d", g.MaxVictimExposure, nrh)
	}

	view, err := client.Forensics(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.Kind != KindAttack || len(view.Policies) != 4 {
		t.Fatalf("forensics view is %s with %d policies, want %s with 4", view.Kind, len(view.Policies), KindAttack)
	}
}

// TestAttackSpecValidation: the attack kind's acceptance surface.
func TestAttackSpecValidation(t *testing.T) {
	ok := JobSpec{Kind: KindAttack, Attacks: []string{"refsync", "decoy"}, NRHs: []int{64, 128}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid attack spec rejected: %v", err)
	}
	if err := (JobSpec{Kind: KindAttack}).Validate(); err != nil {
		t.Errorf("all-defaults attack spec rejected: %v", err)
	}

	cases := map[string]JobSpec{
		"unknown attack":  {Kind: KindAttack, Attacks: []string{"sideways"}},
		"empty attacks":   {Kind: KindAttack, Attacks: []string{}},
		"empty nrhs":      {Kind: KindAttack, NRHs: []int{}},
		"capacities grid": {Kind: KindAttack, Capacities: []int{8}},
		"policies block":  {Kind: KindAttack, Policies: []PolicySpec{{Type: "baseline"}}},
		"workloads block": {Kind: KindAttack, Workloads: &WorkloadsSpec{Mixes: [][]string{{"mcf"}}}},
		"attacks on fig9": {Kind: KindFig9, Attacks: []string{"double"}},
	}
	for name, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted, want an error", name)
		}
	}

	// Zoo engines ride the policies kind too, with param tuning.
	for _, p := range []PolicySpec{
		{Type: "graphene", NRH: 1024},
		{Type: "graphene", NRH: 1024, Param: 32},
		{Type: "rfm", NRH: 1024},
		{Type: "rfm", Param: 64},
	} {
		if _, err := p.policy(); err != nil {
			t.Errorf("policy %+v rejected: %v", p, err)
		}
	}
	for _, p := range []PolicySpec{
		{Type: "graphene"},
		{Type: "rfm"},
		{Type: "para", NRH: 1024, Param: 8},
	} {
		if _, err := p.policy(); err == nil {
			t.Errorf("policy %+v accepted, want an error", p)
		} else if err != nil && !strings.Contains(err.Error(), "param") && !strings.Contains(err.Error(), "needs") {
			t.Errorf("policy %+v error %q names neither param nor a missing field", p, err)
		}
	}
}
