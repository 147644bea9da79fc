package workload

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestProfilesWellFormed(t *testing.T) {
	ps := SPEC2006Profiles()
	if len(ps) < 25 {
		t.Fatalf("only %d profiles", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		if p.MPKI < 0 || p.RowLocality < 0 || p.RowLocality > 1 ||
			p.WriteFrac < 0 || p.WriteFrac > 1 || p.FootprintMB <= 0 {
			t.Errorf("profile %s has out-of-range fields: %+v", p.Name, p)
		}
	}
	// The classic memory-intensive benchmarks must be present.
	for _, name := range []string{"mcf", "lbm", "libquantum", "omnetpp"} {
		if !seen[name] {
			t.Errorf("missing benchmark %s", name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("mcf")
	if err != nil || p.Name != "mcf" {
		t.Errorf("ProfileByName(mcf) = %+v, %v", p, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestProfileByNameAllocatesNothing pins the lookup to the shared
// table: job validation and workload resolution call it for every named
// core of every submission.
func TestProfileByNameAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ProfileByName("mcf"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ProfileByName(mcf) allocates %v times per call, want 0", n)
	}
}

// TestSPEC2006ProfilesReturnsCopy asserts a caller mutating the list it
// was handed cannot change later lookups or later lists.
func TestSPEC2006ProfilesReturnsCopy(t *testing.T) {
	want, _ := ProfileByName("mcf")
	ps := SPEC2006Profiles()
	for i := range ps {
		ps[i].MPKI = -1
		ps[i].Name = "x"
	}
	if got, err := ProfileByName("mcf"); err != nil || got != want {
		t.Errorf("after mutating a SPEC2006Profiles result, ProfileByName(mcf) = %+v, %v; want %+v", got, err, want)
	}
	if got := SPEC2006Profiles()[0]; got != want {
		t.Errorf("after mutating a SPEC2006Profiles result, a fresh list starts with %+v; want %+v", got, want)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ProfileByName("mcf")
	g1 := NewGenerator(p, 7)
	g2 := NewGenerator(p, 7)
	for i := 0; i < 1000; i++ {
		if g1.Next() != g2.Next() {
			t.Fatalf("divergence at access %d", i)
		}
	}
	g3 := NewGenerator(p, 8)
	same := true
	for i := 0; i < 100; i++ {
		if g1.Next() != g3.Next() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestGeneratorStatisticsMatchProfile(t *testing.T) {
	for _, name := range []string{"mcf", "libquantum", "hmmer"} {
		p, _ := ProfileByName(name)
		g := NewGenerator(p, 42)
		const n = 20000
		var gaps, writes, seq float64
		prev := uint64(0)
		for i := 0; i < n; i++ {
			a := g.Next()
			gaps += float64(a.Gap)
			if a.Write {
				writes++
			}
			if i > 0 && a.Addr == prev+64 {
				seq++
			}
			prev = a.Addr
		}
		gotMPKI := 1000 / (gaps/n + 1)
		if math.Abs(gotMPKI-p.MPKI)/p.MPKI > 0.15 {
			t.Errorf("%s: effective MPKI %.2f, want ~%.2f", name, gotMPKI, p.MPKI)
		}
		if wf := writes / n; math.Abs(wf-p.WriteFrac) > 0.03 {
			t.Errorf("%s: write fraction %.3f, want %.3f", name, wf, p.WriteFrac)
		}
		if sl := seq / n; math.Abs(sl-p.RowLocality) > 0.05 {
			t.Errorf("%s: sequential fraction %.3f, want ~%.2f", name, sl, p.RowLocality)
		}
	}
}

func TestGeneratorAddressesAligned(t *testing.T) {
	p, _ := ProfileByName("mcf")
	g := NewGenerator(p, 1)
	f := func(n uint8) bool {
		for i := 0; i < int(n); i++ {
			if g.Next().Addr%64 != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeneratorFootprintBounded(t *testing.T) {
	p, _ := ProfileByName("sphinx3") // 40MB -> 64MB rounded
	g := NewGenerator(p, 3)
	lo, hi := ^uint64(0), uint64(0)
	for i := 0; i < 50000; i++ {
		a := g.Next().Addr
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	if span := hi - lo; span > 64<<20 {
		t.Errorf("address span %d exceeds rounded footprint", span)
	}
}

// TestGeneratorFootprintsDisjoint: the regression for the overlap bug —
// at Validate's 64 GiB footprint ceiling, region spacing must widen past
// the historical 16 GiB stride so co-running cores (distinct seeds)
// still touch disjoint address ranges.
func TestGeneratorFootprintsDisjoint(t *testing.T) {
	p := Profile{Name: "huge", MPKI: 10, RowLocality: 0.5, FootprintMB: 1 << 16, WriteFrac: 0.2}
	if err := p.Validate(); err != nil {
		t.Fatalf("max-footprint profile rejected: %v", err)
	}
	size := uint64(p.FootprintMB) << 20
	type region struct{ lo, hi uint64 }
	regions := make([]region, 4)
	for seed := range regions {
		g := NewGenerator(p, uint64(seed))
		lo, hi := ^uint64(0), uint64(0)
		for i := 0; i < 20000; i++ {
			a := g.Next().Addr
			if a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
		}
		if hi-lo > size {
			t.Fatalf("seed %d: span %d exceeds footprint %d", seed, hi-lo, size)
		}
		if lo < g.base || hi >= g.base+size {
			t.Fatalf("seed %d: addresses [%d,%d] escape region [%d,%d)", seed, lo, hi, g.base, g.base+size)
		}
		regions[seed] = region{g.base, g.base + size}
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			if regions[i].lo < regions[j].hi && regions[j].lo < regions[i].hi {
				t.Errorf("seeds %d and %d share address range [%d,%d) vs [%d,%d)",
					i, j, regions[i].lo, regions[i].hi, regions[j].lo, regions[j].hi)
			}
		}
	}
}

// TestGeneratorPlacementUnchangedForSmallFootprints pins that the fix
// did not move any footprint that already fit the 16 GiB stride: every
// existing stream (and so every figure golden) is byte-identical.
func TestGeneratorPlacementUnchangedForSmallFootprints(t *testing.T) {
	for _, p := range SPEC2006Profiles() {
		for _, seed := range []uint64{0, 1, 7, 63, 64, 65} {
			g := NewGenerator(p, seed)
			if want := (seed % 64) << 34; g.base != want {
				t.Fatalf("%s seed %d: base %d, want historical %d", p.Name, seed, g.base, want)
			}
		}
	}
}

func TestMixesDeterministicAndSized(t *testing.T) {
	a := Mixes(125, 8, 1)
	b := Mixes(125, 8, 1)
	if len(a) != 125 {
		t.Fatalf("got %d mixes", len(a))
	}
	for i := range a {
		if len(a[i].Profiles) != 8 {
			t.Fatalf("mix %d has %d cores", i, len(a[i].Profiles))
		}
		if a[i].String() != b[i].String() {
			t.Fatalf("mix %d differs across calls", i)
		}
	}
	c := Mixes(125, 8, 2)
	diff := false
	for i := range a {
		if a[i].String() != c[i].String() {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical mix sets")
	}
}

func TestProfileValidate(t *testing.T) {
	for _, p := range SPEC2006Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("builtin %s fails validation: %v", p.Name, err)
		}
	}
	bad := []Profile{
		{Name: "", MPKI: 1, FootprintMB: 1},
		{Name: "has space", MPKI: 1, FootprintMB: 1},
		{Name: "x/y", MPKI: 1, FootprintMB: 1},
		{Name: "ok", MPKI: 0, FootprintMB: 1},
		{Name: "ok", MPKI: 2000, FootprintMB: 1},
		{Name: "ok", MPKI: 1, FootprintMB: 0},
		{Name: "ok", MPKI: 1, FootprintMB: 1, RowLocality: 1.5},
		{Name: "ok", MPKI: 1, FootprintMB: 1, WriteFrac: -0.1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %+v passed validation", p)
		}
	}
}

// TestProfileSourceKeyDistinguishesEveryField: the satellite aliasing
// guarantee at the source level — perturbing any single profile field
// changes the content key.
func TestProfileSourceKeyDistinguishesEveryField(t *testing.T) {
	base := Profile{Name: "w", MPKI: 10, RowLocality: 0.5, FootprintMB: 64, WriteFrac: 0.25}
	variants := []Profile{base, base, base, base, base}
	variants[0].Name = "w2"
	variants[1].MPKI = 10.5
	variants[2].RowLocality = 0.51
	variants[3].FootprintMB = 65
	variants[4].WriteFrac = 0.26
	for i, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("variant %d key %q aliases the base", i, v.Key())
		}
	}
}

// TestProfileKeyMatchesFmt: Key is built with strconv, but its bytes
// must stay exactly fmt's "%s(%g,%g,%d,%g)" — result stores and
// checkpoints written by earlier versions are addressed by them.
func TestProfileKeyMatchesFmt(t *testing.T) {
	fmtKey := func(p Profile) string {
		return fmt.Sprintf("%s(%g,%g,%d,%g)", p.Name, p.MPKI, p.RowLocality, p.FootprintMB, p.WriteFrac)
	}
	tenth, fifth := 0.1, 0.2
	awkward := []float64{
		0, math.Copysign(0, -1), tenth + fifth, 1e21, 1e20, -1e21, 1e-5, 1e-4, 123456789.125,
		5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	ints := []int{0, -1, 64, math.MaxInt64, math.MinInt64}
	for i, f := range awkward {
		p := Profile{Name: "w", MPKI: f, RowLocality: awkward[(i+1)%len(awkward)],
			FootprintMB: ints[i%len(ints)], WriteFrac: awkward[(i+2)%len(awkward)]}
		if got, want := p.Key(), fmtKey(p); got != want {
			t.Errorf("Key() = %q, fmt renders %q", got, want)
		}
	}
	for _, p := range SPEC2006Profiles() {
		if got, want := p.Key(), fmtKey(p); got != want {
			t.Errorf("%s: Key() = %q, fmt renders %q", p.Name, got, want)
		}
	}
	// Arbitrary bit patterns cover every float class, NaN payloads included.
	if err := quick.Check(func(name string, a, b, c uint64, fp int) bool {
		p := Profile{Name: name, MPKI: math.Float64frombits(a), RowLocality: math.Float64frombits(b),
			FootprintMB: fp, WriteFrac: math.Float64frombits(c)}
		return p.Key() == fmtKey(p)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestBuiltinProfileKeys: builtin profiles answer Key from a table
// rendered at init, without allocating, and its bytes are the freshly
// rendered ones; a copy of a builtin with the same Name but a different
// MPKI misses the table and gets its own key.
func TestBuiltinProfileKeys(t *testing.T) {
	for _, p := range SPEC2006Profiles() {
		if got, want := p.Key(), p.renderKey(); got != want {
			t.Errorf("%s: Key() = %q, rendered %q", p.Name, got, want)
		}
		if n := testing.AllocsPerRun(10, func() { _ = p.Key() }); n != 0 {
			t.Errorf("%s: Key() allocates %.0f times, want 0 (the init table)", p.Name, n)
		}
		tuned := p
		tuned.MPKI *= 2
		if got, want := tuned.Key(), tuned.renderKey(); got != want || got == p.Key() {
			t.Errorf("%s with MPKI %g: Key() = %q, rendered %q, builtin %q", p.Name, tuned.MPKI, got, want, p.Key())
		}
	}
}

func TestRoundRobinMixes(t *testing.T) {
	a, _ := ProfileByName("mcf")
	b, _ := ProfileByName("lbm")
	ms := RoundRobinMixes([]Source{a, b}, 2, 3)
	want := [][]string{{"mcf", "lbm", "mcf"}, {"lbm", "mcf", "lbm"}}
	for i, m := range ms {
		for j, s := range m.Sources {
			if s.Label() != want[i][j] {
				t.Fatalf("mix %d core %d = %s, want %s", i, j, s.Label(), want[i][j])
			}
		}
	}
	if RoundRobinMixes(nil, 2, 3) != nil {
		t.Error("empty source list produced mixes")
	}
	if RoundRobinMixes([]Source{a}, -1, 3) != nil || RoundRobinMixes([]Source{a}, 2, -1) != nil {
		t.Error("non-positive counts produced mixes instead of nil")
	}
}

// TestRoundRobinNamesMatchesMixes pins the CLI/service cell-sharing
// contract: expanding a workload list by name (what clients send as
// explicit spec mixes) must assign exactly like RoundRobinMixes (what
// `hira-sim -trace` runs), for every shape.
func TestRoundRobinNamesMatchesMixes(t *testing.T) {
	profiles := SPEC2006Profiles()[:5]
	for _, shape := range []struct{ srcs, n, cores int }{
		{1, 1, 4}, {2, 3, 8}, {5, 4, 3}, {3, 7, 1},
	} {
		srcs := make([]Source, shape.srcs)
		names := make([]string, shape.srcs)
		for i := range srcs {
			srcs[i] = profiles[i]
			names[i] = profiles[i].Name
		}
		mixes := RoundRobinMixes(srcs, shape.n, shape.cores)
		byName := RoundRobinNames(names, shape.n, shape.cores)
		if len(mixes) != len(byName) {
			t.Fatalf("shape %+v: %d mixes vs %d name rows", shape, len(mixes), len(byName))
		}
		for i := range mixes {
			for j, s := range mixes[i].Sources {
				if s.Label() != byName[i][j] {
					t.Fatalf("shape %+v mix %d core %d: %s vs %s", shape, i, j, s.Label(), byName[i][j])
				}
			}
		}
	}
	if RoundRobinNames(nil, 2, 3) != nil || RoundRobinNames([]string{"a"}, 0, 3) != nil {
		t.Error("degenerate name expansions produced rows")
	}
}

func TestMixesCoverManyBenchmarks(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Mixes(125, 8, 1) {
		for _, p := range m.Profiles {
			seen[p.Name] = true
		}
	}
	if len(seen) < 20 {
		t.Errorf("125 mixes touched only %d distinct benchmarks", len(seen))
	}
}
