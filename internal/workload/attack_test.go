package workload

import (
	"testing"

	"hira/internal/cache"
	"hira/internal/dram"
)

func attackBaseSpec() AttackSpec {
	return AttackSpec{Kind: AttackDouble, Bank: 2, VictimRow: 256}
}

func TestAttackConstruction(t *testing.T) {
	org := dram.DefaultOrg()
	a, err := NewAttack(attackBaseSpec(), org)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.AggressorRows(); len(got) != 2 || got[0] != 255 || got[1] != 257 {
		t.Fatalf("double-sided aggressors = %v, want [255 257]", got)
	}
	mapper := dram.NewMOPMapper(org)
	for ci, rows := range a.rows {
		if len(rows) != DefaultEvictRows {
			t.Fatalf("class %d has %d rows, want %d", ci, len(rows), DefaultEvictRows)
		}
		want := (a.addr[ci][0] / cache.LLCBlock) % cache.LLCSets
		for k, r := range rows {
			addr := a.addr[ci][k]
			if set := (addr / cache.LLCBlock) % cache.LLCSets; set != want {
				t.Errorf("class %d row %d: LLC set %d, want %d", ci, r, set, want)
			}
			loc := mapper.Map(addr)
			if loc.Channel != 0 || loc.Rank != 0 || loc.Bank != 2 || loc.Row != r {
				t.Errorf("class %d row %d maps to %+v", ci, r, loc)
			}
		}
	}
}

func TestAttackManySided(t *testing.T) {
	org := dram.DefaultOrg()
	a, err := NewAttack(AttackSpec{Kind: AttackMany, VictimRow: 300, Aggressors: 5}, org)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.AggressorRows(); len(got) != 5 ||
		got[0] != 299 || got[1] != 301 || got[2] != 297 || got[3] != 303 || got[4] != 295 {
		t.Fatalf("many-sided aggressors = %v", got)
	}
}

func TestAttackStreamDeterministicAndSeedInvariant(t *testing.T) {
	org := dram.DefaultOrg()
	a, err := NewAttack(attackBaseSpec(), org)
	if err != nil {
		t.Fatal(err)
	}
	if !a.SeedInvariant() {
		t.Fatal("attack must be seed-invariant")
	}
	s1, s2 := a.Stream(1), a.Stream(999)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		x, y := s1.Next(), s2.Next()
		if x != y {
			t.Fatalf("streams diverge at access %d for different seeds", i)
		}
		if x.Write {
			t.Fatal("hammering accesses must be reads")
		}
		if x.Gap != 0 {
			t.Fatal("continuous attack emitted an idle gap")
		}
		seen[x.Addr] = true
	}
	if want := 2 * DefaultEvictRows; len(seen) != want {
		t.Errorf("stream touched %d distinct addresses, want %d", len(seen), want)
	}
}

// TestAttackStreamEvictionOrder pins the LRU-defeating property: within
// any window of EvictRows consecutive visits to one class, all rows are
// distinct, so an 8-way LRU set never retains a line long enough to hit.
func TestAttackStreamEvictionOrder(t *testing.T) {
	org := dram.DefaultOrg()
	for _, sequential := range []bool{false, true} {
		spec := attackBaseSpec()
		spec.Sequential = sequential
		a, err := NewAttack(spec, org)
		if err != nil {
			t.Fatal(err)
		}
		s := a.Stream(0)
		var perClass [2][]uint64
		for i := 0; i < 4*2*DefaultEvictRows; i++ {
			addr := s.Next().Addr
			for ci := range a.addr {
				for _, ca := range a.addr[ci] {
					if ca == addr {
						perClass[ci] = append(perClass[ci], addr)
					}
				}
			}
		}
		for ci, visits := range perClass {
			for i := 0; i+DefaultEvictRows <= len(visits); i++ {
				win := map[uint64]bool{}
				for _, v := range visits[i : i+DefaultEvictRows] {
					win[v] = true
				}
				if len(win) != DefaultEvictRows {
					t.Fatalf("sequential=%t class %d: window at %d revisits a row before eviction", sequential, ci, i)
				}
			}
		}
	}
}

func TestAttackDutyCycleAndDecoys(t *testing.T) {
	org := dram.DefaultOrg()
	spec := attackBaseSpec()
	spec.BurstAccesses = 10
	spec.IdleGap = 500
	spec.Decoys = 3
	a, err := NewAttack(spec, org)
	if err != nil {
		t.Fatal(err)
	}
	hammer := map[uint64]bool{}
	for _, class := range a.addr {
		for _, addr := range class {
			hammer[addr] = true
		}
	}
	s := a.Stream(0)
	gaps, decoys := 0, 0
	const n = 1000
	for i := 0; i < n; i++ {
		acc := s.Next()
		if acc.Gap > 0 {
			if acc.Gap != 500 {
				t.Fatalf("gap %d, want 500", acc.Gap)
			}
			gaps++
		}
		if !hammer[acc.Addr] {
			decoys++
		}
	}
	if want := n / 10; gaps != want {
		t.Errorf("%d idle gaps in %d accesses, want %d (every 10th)", gaps, n, want)
	}
	// One decoy per full hammer round of 2*EvictRows+1 accesses.
	if want := n / (2*DefaultEvictRows + 1); decoys < want-1 || decoys > want+1 {
		t.Errorf("%d decoy accesses, want ~%d", decoys, want)
	}
}

// TestAttackKeyDistinguishesEveryParameter: the aliasing guarantee — any
// parameter or organization change yields a distinct content key.
func TestAttackKeyDistinguishesEveryParameter(t *testing.T) {
	org := dram.DefaultOrg()
	base, err := NewAttack(attackBaseSpec(), org)
	if err != nil {
		t.Fatal(err)
	}
	perturb := []func(*AttackSpec, *dram.Org){
		func(s *AttackSpec, _ *dram.Org) { s.Kind = AttackSingle },
		func(s *AttackSpec, _ *dram.Org) { s.Bank = 3 },
		func(s *AttackSpec, _ *dram.Org) { s.VictimRow = 257 },
		func(s *AttackSpec, _ *dram.Org) { s.EvictRows = 10 },
		func(s *AttackSpec, _ *dram.Org) { s.BurstAccesses = 64; s.IdleGap = 100 },
		func(s *AttackSpec, _ *dram.Org) { s.Decoys = 2 },
		func(s *AttackSpec, _ *dram.Org) { s.Sequential = true },
		func(_ *AttackSpec, o *dram.Org) { o.Channels = 2 },
		func(_ *AttackSpec, o *dram.Org) { o.RanksPerChannel = 2 },
	}
	seen := map[string]int{base.Key(): -1}
	for i, f := range perturb {
		spec, o := attackBaseSpec(), dram.DefaultOrg()
		f(&spec, &o)
		a, err := NewAttack(spec, o)
		if err != nil {
			t.Fatalf("perturbation %d: %v", i, err)
		}
		if prev, dup := seen[a.Key()]; dup {
			t.Errorf("perturbation %d aliases %d: key %q", i, prev, a.Key())
		}
		seen[a.Key()] = i
	}
}

func TestAttackSpecValidate(t *testing.T) {
	org := dram.DefaultOrg()
	if err := attackBaseSpec().Validate(org); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
	bad := []AttackSpec{
		{Kind: "triple", VictimRow: 256},
		{Kind: AttackMany, VictimRow: 256, Aggressors: 2},
		{Kind: AttackDouble, VictimRow: 256, Channel: 9},
		{Kind: AttackDouble, VictimRow: 256, Rank: 5},
		{Kind: AttackDouble, VictimRow: 256, Bank: 99},
		{Kind: AttackDouble, VictimRow: 256, EvictRows: 65},
		{Kind: AttackDouble, VictimRow: 256, IdleGap: 10},
		{Kind: AttackDouble, VictimRow: 256, Decoys: -1},
		{Kind: AttackDouble, VictimRow: 0},       // class escapes below row 0
		{Kind: AttackDouble, VictimRow: 1 << 30}, // class escapes above
	}
	for i, s := range bad {
		if err := s.Validate(org); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}
