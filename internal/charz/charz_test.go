package charz

import (
	"math"
	"testing"

	"hira/internal/chip"
	"hira/internal/dram"
	"hira/internal/softmc"
)

var (
	t3ns = 3 * dram.Nanosecond
)

func fastHost(cov float64, seed uint64) *softmc.Host {
	m := Module{Label: "T", Design: chip.SKHynixLike("test", cov), Seed: seed}
	return softmc.NewHost(m.NewChip(CharzGeometry()))
}

func TestTestedModulesMatchTable1(t *testing.T) {
	ms := TestedModules()
	if len(ms) != 7 {
		t.Fatalf("got %d modules, want 7", len(ms))
	}
	labels := []string{"A0", "A1", "B0", "B1", "C0", "C1", "C2"}
	for i, m := range ms {
		if m.Label != labels[i] {
			t.Errorf("module %d label = %s, want %s", i, m.Label, labels[i])
		}
		if m.ChipMfr != "SK Hynix" {
			t.Errorf("%s: ChipMfr = %s (all working chips are SK Hynix)", m.Label, m.ChipMfr)
		}
		if !m.Design.SupportsHiRA {
			t.Errorf("%s: design does not support HiRA", m.Label)
		}
	}
	for _, m := range NonWorkingModules() {
		if m.Design.SupportsHiRA {
			t.Errorf("%s: non-working module supports HiRA", m.Label)
		}
	}
}

func TestTestedRowsRegions(t *testing.T) {
	g := CharzGeometry()
	rows := TestedRows(g, 2048, 1)
	if len(rows) != 3*2048 {
		t.Fatalf("got %d rows, want %d", len(rows), 3*2048)
	}
	if rows[0] != 0 {
		t.Errorf("first region must start at row 0")
	}
	if last := rows[len(rows)-1]; last != g.RowsPerBank()-1 {
		t.Errorf("last tested row = %d, want %d", last, g.RowsPerBank()-1)
	}
	for _, r := range rows {
		if r < 0 || r >= g.RowsPerBank() {
			t.Fatalf("row %d out of range", r)
		}
	}
	// Strided sampling keeps bounds.
	strided := TestedRows(g, 2048, 7)
	if len(strided) >= len(rows) {
		t.Error("stride did not thin the sample")
	}
}

func TestInteriorRowsExcludesSubarrayEdges(t *testing.T) {
	g := CharzGeometry()
	in := InteriorRows(g, []int{0, 1, 62, 63, 64, 65, 100})
	want := []int{1, 62, 65, 100}
	if len(in) != len(want) {
		t.Fatalf("InteriorRows = %v, want %v", in, want)
	}
	for i := range want {
		if in[i] != want[i] {
			t.Fatalf("InteriorRows = %v, want %v", in, want)
		}
	}
}

func TestSampleRows(t *testing.T) {
	rows := make([]int, 100)
	for i := range rows {
		rows[i] = i
	}
	s := SampleRows(rows, 10)
	if len(s) != 10 {
		t.Fatalf("len = %d, want 10", len(s))
	}
	if s[0] != 0 || s[9] != 90 {
		t.Errorf("sample = %v", s)
	}
	if got := SampleRows(rows, 1000); len(got) != 100 {
		t.Error("oversampling should return input")
	}
}

func TestPairWorksAgreesWithIsolation(t *testing.T) {
	h := fastHost(0.33, 42)
	c := h.Chip()
	g := c.Geometry()
	// Probe a handful of pairs; Algorithm 1's verdict must match the
	// underlying isolation graph at nominal t1=t2=3ns.
	rows := []int{32, 3 * 64, 7 * 64, 40*64 + 10, 90 * 64, 127 * 64}
	for _, a := range rows[:3] {
		for _, b := range rows[3:] {
			want := c.Isolated(a/g.RowsPerSubarray, b/g.RowsPerSubarray)
			if got := PairWorks(h, 0, a, b, t3ns, t3ns); got != want {
				t.Errorf("PairWorks(%d,%d) = %v, isolation says %v", a, b, got, want)
			}
		}
	}
}

func TestMeasureCoverageNearDesignTarget(t *testing.T) {
	h := fastHost(0.33, 42)
	g := h.Chip().Geometry()
	tested := TestedRows(g, 2048, 1)
	rowAs := SampleRows(tested, 12)
	rowBs := SampleRows(tested, 128)
	res := MeasureCoverage(h, 0, rowAs, rowBs, t3ns, t3ns)
	if math.Abs(res.Summary.Mean-0.33) > 0.08 {
		t.Errorf("coverage mean = %.3f, want ~0.33", res.Summary.Mean)
	}
	if res.Summary.Min <= 0 {
		t.Errorf("coverage min = %.3f; no zero-coverage rows expected at t1=t2=3ns", res.Summary.Min)
	}
}

func TestCoverageZeroAtBadT1(t *testing.T) {
	h := fastHost(0.33, 42)
	g := h.Chip().Geometry()
	tested := TestedRows(g, 2048, 1)
	rowAs := SampleRows(tested, 8)
	rowBs := SampleRows(tested, 64)
	// t1 = 1.5ns (SoftMC's minimum command period) is below many rows'
	// sense-amp enable time: some rows must drop to zero coverage and the
	// average must fall well below the 3ns-grid value (Fig. 4's first
	// column).
	res := MeasureCoverage(h, 0, rowAs, rowBs, dram.FromNanoseconds(1.5), t3ns)
	if res.Summary.Min != 0 {
		t.Errorf("coverage at t1=1.5ns = %v, want some zero-coverage rows", res.Summary)
	}
	if res.Summary.Mean > 0.25 {
		t.Errorf("coverage mean at t1=1.5ns = %.3f, want < 0.25", res.Summary.Mean)
	}
	// t1 = 6ns exceeds most rows' bank-I/O connect time: coverage drops.
	res6 := MeasureCoverage(h, 0, rowAs, rowBs, dram.FromNanoseconds(6), t3ns)
	if res6.Summary.Mean > 0.25 {
		t.Errorf("coverage mean at t1=6ns = %.3f, want < 0.25", res6.Summary.Mean)
	}
}

func TestFig4GridShape(t *testing.T) {
	if len(Fig4T1Values()) != 4 || len(Fig4T2Values()) != 4 {
		t.Fatal("Fig. 4 grid must be 4x4")
	}
	if Fig4T1Values()[1] != t3ns {
		t.Error("second t1 value must be 3ns")
	}
}

func TestFindDummyRow(t *testing.T) {
	h := fastHost(0.33, 42)
	victim := 10
	dummy, ok := FindDummyRow(h, 0, victim, t3ns, t3ns)
	if !ok {
		t.Fatal("no dummy row found at 33% coverage")
	}
	g := h.Chip().Geometry()
	if !h.Chip().Isolated(victim/g.RowsPerSubarray, dummy/g.RowsPerSubarray) {
		t.Error("dummy row's subarray is not isolated from victim's")
	}
}

func TestMeasureNRHWithoutHiRAMatchesIntrinsic(t *testing.T) {
	h := fastHost(0.33, 42)
	victim := 10
	dummy, ok := FindDummyRow(h, 0, victim, t3ns, t3ns)
	if !ok {
		t.Fatal("no dummy row")
	}
	nrh := h.Chip().Intrinsics(0, victim).NRH
	got := MeasureNRH(h, 0, victim, dummy, false, t3ns, t3ns)
	if math.Abs(float64(got)-nrh) > 0.1*nrh {
		t.Errorf("measured NRH = %d, intrinsic = %.0f", got, nrh)
	}
}

func TestMeasureNRHWithHiRADoubles(t *testing.T) {
	h := fastHost(0.33, 42)
	victims := SampleRows(InteriorRows(CharzGeometry(), TestedRows(CharzGeometry(), 2048, 1)), 6)
	results := MeasureNRHRows(h, 0, victims, t3ns, t3ns)
	if len(results) == 0 {
		t.Fatal("no victims measured")
	}
	study := StudyNRH(results)
	// §4.3: thresholds increase ~1.9x on average; all results should rise
	// well above 1x and stay at or below ~2.6x.
	if study.Normalized.Mean < 1.6 || study.Normalized.Mean > 2.2 {
		t.Errorf("normalized NRH mean = %.3f, want ~1.9", study.Normalized.Mean)
	}
	if study.Normalized.Min < 1.0 {
		t.Errorf("normalized NRH min = %.3f < 1", study.Normalized.Min)
	}
	if study.Normalized.Max > 2.7 {
		t.Errorf("normalized NRH max = %.3f, implausibly high", study.Normalized.Max)
	}
}

func TestNonWorkingModuleFailsVerification(t *testing.T) {
	m := NonWorkingModules()[0]
	h := softmc.NewHost(m.NewChip(CharzGeometry()))
	// On chips that ignore HiRA's sequence, Algorithm 1 sees no bit flips
	// (so the pair "works" vacuously)...
	if !PairWorks(h, 0, 10, 600, t3ns, t3ns) {
		t.Error("Algorithm 1 should observe no flips on a chip that drops the sequence")
	}
	// ...but Algorithm 2 shows no threshold increase: the second
	// activation was ignored, so the victim is never refreshed.
	victim := 10
	without := MeasureNRH(h, 0, victim, 600, false, t3ns, t3ns)
	with := MeasureNRH(h, 0, victim, 600, true, t3ns, t3ns)
	ratio := float64(with) / float64(without)
	if ratio > 1.1 {
		t.Errorf("normalized NRH = %.3f on non-HiRA chip, want ~1.0", ratio)
	}
}

func TestCharacterizeModuleSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("module characterization is a second-scale test")
	}
	m := TestedModules()[4] // C0
	res := CharacterizeModule(m, Options{
		RegionSize: 512, RowAStride: 128, RowBStride: 16, NRHVictims: 6,
	})
	if !res.HiRAWorks {
		t.Error("HiRA verification failed on a working module")
	}
	if math.Abs(res.Coverage.Mean-0.353) > 0.09 {
		t.Errorf("C0 coverage mean = %.3f, want ~0.353", res.Coverage.Mean)
	}
	if math.Abs(res.NormNRH.Mean-1.9) > 0.25 {
		t.Errorf("C0 normalized NRH mean = %.3f, want ~1.9", res.NormNRH.Mean)
	}
}

func TestCoverageIdenticalAcrossBanks(t *testing.T) {
	m := TestedModules()[0]
	if !coverageIdenticalAcrossBanks(m, 12, t3ns, t3ns) {
		t.Error("§4.4.1: pairs must be identical across banks")
	}
}

// coverageIdenticalAcrossBanks probes the paper's §4.4.1 observation:
// the set of row pairs HiRA can concurrently activate is identical in
// every bank. It probes pairCount pairs in every bank and reports whether
// all banks agree with bank 0.
func coverageIdenticalAcrossBanks(m Module, pairCount int, t1, t2 dram.Time) bool {
	g := CharzGeometry()
	h := softmc.NewHost(m.NewChip(g))
	rows := SampleRows(TestedRows(g, 2048, 1), pairCount*2)
	var ref []bool
	for bank := 0; bank < g.Banks; bank++ {
		got := make([]bool, 0, pairCount)
		for i := 0; i+1 < len(rows); i += 2 {
			got = append(got, PairWorks(h, bank, rows[i], rows[i+1], t1, t2))
		}
		if bank == 0 {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				return false
			}
		}
	}
	return true
}

func TestBankVariationSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("bank variation is a second-scale test")
	}
	m := TestedModules()[0]
	banks := BankVariation(m, 4, t3ns, t3ns)
	if len(banks) != CharzGeometry().Banks {
		t.Fatalf("got %d banks", len(banks))
	}
	for _, b := range banks {
		if b.Normalized.N == 0 {
			continue
		}
		// Fig. 6: every bank's values stay above ~1.5x.
		if b.Normalized.Mean < 1.5 || b.Normalized.Mean > 2.3 {
			t.Errorf("bank %d normalized NRH mean = %.3f", b.Bank, b.Normalized.Mean)
		}
	}
}
