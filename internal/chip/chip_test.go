package chip

import (
	"math"
	"testing"
	"testing/quick"

	"hira/internal/dram"
)

func testChip(seed uint64) *Chip {
	g := Geometry{Banks: 2, SubarraysPerBank: 32, RowsPerSubarray: 64}
	return New(SKHynixLike("test", 0.33), g, seed, 8)
}

const (
	nsT = dram.Nanosecond
)

var (
	tRAS = dram.FromNanoseconds(32)
	tRP  = dram.FromNanoseconds(14.25)
)

// doHiRA runs one ACT-PRE-ACT HiRA sequence starting at time at and closes
// both rows, returning the time after the final close settles.
func doHiRA(c *Chip, bank, rowA, rowB int, t1, t2 dram.Time, at dram.Time) dram.Time {
	c.Activate(bank, rowA, at)
	c.Precharge(bank, at+t1)
	c.Activate(bank, rowB, at+t1+t2)
	c.Precharge(bank, at+t1+t2+tRAS)
	return at + t1 + t2 + tRAS + tRP
}

// isolatedPair returns a (rowA, rowB) pair in isolated subarrays and a
// pair in non-isolated subarrays.
func isolatedPair(t *testing.T, c *Chip) (okA, okB, badA, badB int) {
	t.Helper()
	g := c.Geometry()
	for sa := 0; sa < g.SubarraysPerBank; sa++ {
		isos := c.IsolatedSubarrays(sa)
		if len(isos) == 0 || len(isos) == g.SubarraysPerBank-1 {
			continue
		}
		okA = sa * g.RowsPerSubarray
		okB = isos[0] * g.RowsPerSubarray
		for sb := 0; sb < g.SubarraysPerBank; sb++ {
			if sb != sa && !c.Isolated(sa, sb) {
				badA = okA
				badB = sb * g.RowsPerSubarray
				return okA, okB, badA, badB
			}
		}
	}
	t.Fatal("could not find isolated and non-isolated subarray pairs")
	return
}

func TestIsolationGraphProperties(t *testing.T) {
	c := testChip(7)
	g := c.Geometry()
	f := func(a, b uint8) bool {
		i := int(a) % g.SubarraysPerBank
		j := int(b) % g.SubarraysPerBank
		if i == j && c.Isolated(i, j) {
			return false // never isolated from itself
		}
		if abs(i-j) == 1 && c.Isolated(i, j) {
			return false // adjacent subarrays share sense amps
		}
		return c.Isolated(i, j) == c.Isolated(j, i) // symmetric
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestIsolationCoverageNearTarget(t *testing.T) {
	// The paper's simulated bank structure: 16 banks, 128 subarrays of
	// 512 rows (64 K rows per bank).
	g := Geometry{Banks: 16, SubarraysPerBank: 128, RowsPerSubarray: 512}
	c := New(SKHynixLike("cov", 0.33), g, 99, 8)
	total := 0
	for sa := 0; sa < g.SubarraysPerBank; sa++ {
		total += len(c.IsolatedSubarrays(sa))
	}
	frac := float64(total) / float64(g.SubarraysPerBank*g.SubarraysPerBank)
	if math.Abs(frac-0.33) > 0.04 {
		t.Errorf("isolation fraction = %.3f, want ~0.33", frac)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, RowIntrinsics) {
		c := testChip(42)
		c.InitRow(0, 10, 0xAA)
		c.InitRow(0, 700, 0x55)
		doHiRA(c, 0, 10, 700, 3*nsT, 3*nsT, 0)
		return c.CompareRow(0, 10, 0xAA), c.Intrinsics(0, 10)
	}
	f1, i1 := run()
	f2, i2 := run()
	if f1 != f2 || i1 != i2 {
		t.Errorf("chip not deterministic: (%d,%+v) vs (%d,%+v)", f1, i1, f2, i2)
	}
}

func TestHiRAIsolatedPairSucceeds(t *testing.T) {
	c := testChip(42)
	okA, okB, _, _ := isolatedPair(t, c)
	c.InitRow(0, okA, 0xFF)
	c.InitRow(0, okB, 0x00)
	doHiRA(c, 0, okA, okB, 3*nsT, 3*nsT, 0)
	if f := c.CompareRow(0, okA, 0xFF); f != 0 {
		t.Errorf("RowA flipped %d bits on isolated HiRA pairing", f)
	}
	if f := c.CompareRow(0, okB, 0x00); f != 0 {
		t.Errorf("RowB flipped %d bits on isolated HiRA pairing", f)
	}
}

func TestHiRANonIsolatedPairCorruptsBothRows(t *testing.T) {
	c := testChip(42)
	_, _, badA, badB := isolatedPair(t, c)
	c.InitRow(0, badA, 0xFF)
	c.InitRow(0, badB, 0x00)
	doHiRA(c, 0, badA, badB, 3*nsT, 3*nsT, 0)
	if f := c.CompareRow(0, badA, 0xFF); f == 0 {
		t.Error("RowA intact after non-isolated HiRA pairing (negative control failed)")
	}
	if f := c.CompareRow(0, badB, 0x00); f == 0 {
		t.Error("RowB intact after non-isolated HiRA pairing (negative control failed)")
	}
}

func TestHiRASameSubarrayCorrupts(t *testing.T) {
	c := testChip(42)
	c.InitRow(0, 4, 0xFF)
	c.InitRow(0, 9, 0x00)
	doHiRA(c, 0, 4, 9, 3*nsT, 3*nsT, 0) // same subarray: shares bitlines
	if c.CompareRow(0, 4, 0xFF) == 0 && c.CompareRow(0, 9, 0x00) == 0 {
		t.Error("same-subarray HiRA pairing left both rows intact")
	}
}

func TestHiRAT1TooSmallCorruptsFirstRow(t *testing.T) {
	c := testChip(42)
	okA, okB, _, _ := isolatedPair(t, c)
	// Find a RowA whose sense-amp enable time exceeds 0.8ns; t1=0.75ns is
	// below the clip floor so every row fails.
	c.InitRow(0, okA, 0xFF)
	c.InitRow(0, okB, 0x00)
	doHiRA(c, 0, okA, okB, dram.FromNanoseconds(0.65), 3*nsT, 0)
	if c.CompareRow(0, okA, 0xFF) == 0 {
		t.Error("RowA intact though PRE arrived before sense amps enabled")
	}
}

func TestHiRAT1TooLargeCorruptsFirstRow(t *testing.T) {
	c := testChip(42)
	okA, okB, _, _ := isolatedPair(t, c)
	c.InitRow(0, okA, 0xFF)
	c.InitRow(0, okB, 0x00)
	// t1=8.5ns exceeds every row's I/O-connect time (clip max 8.0).
	doHiRA(c, 0, okA, okB, dram.FromNanoseconds(8.5), 3*nsT, 0)
	if c.CompareRow(0, okA, 0xFF) == 0 {
		t.Error("RowA intact though precharge arrived after bank-I/O connect")
	}
}

func TestHiRAT2TooLargeBecomesNormalPrecharge(t *testing.T) {
	c := testChip(42)
	okA, okB, _, _ := isolatedPair(t, c)
	c.InitRow(0, okA, 0xFF)
	c.InitRow(0, okB, 0x00)
	// Second ACT arrives 12ns after PRE: past every row's wordline-hold
	// window, so the precharge completes and RowA (open for only
	// t1+wlHold < restoreNeed) keeps its latched data but the second ACT
	// proceeds as a normal activation of RowB.
	c.Activate(0, okA, 0)
	c.Precharge(0, 3*nsT)
	c.Activate(0, okB, 3*nsT+12*nsT)
	c.Precharge(0, 3*nsT+12*nsT+tRAS)
	if f := c.CompareRow(0, okB, 0x00); f != 0 {
		t.Errorf("RowB flipped %d bits in a plain activation", f)
	}
}

func TestNonHiRADesignIgnoresSequence(t *testing.T) {
	// §12: chips from the two non-working manufacturers act as if they
	// never received the grossly violating PRE (and hence the second
	// ACT). Both rows stay intact — which is exactly why Algorithm 1
	// alone cannot certify HiRA and Algorithm 2 must verify the second
	// activation.
	g := Geometry{Banks: 2, SubarraysPerBank: 32, RowsPerSubarray: 64}
	c := New(NonHiRALike("micron-like"), g, 42, 8)
	c.InitRow(0, 10, 0xFF)
	c.InitRow(0, 700, 0x00)
	doHiRA(c, 0, 10, 700, 3*nsT, 3*nsT, 0)
	if f := c.CompareRow(0, 10, 0xFF); f != 0 {
		t.Errorf("RowA flipped %d bits; non-HiRA design should drop the sequence", f)
	}
	if f := c.CompareRow(0, 700, 0x00); f != 0 {
		t.Errorf("RowB flipped %d bits; non-HiRA design should drop the sequence", f)
	}
	if c.Ignored < 2 {
		t.Errorf("Ignored = %d, want >= 2 (dropped PRE and second ACT)", c.Ignored)
	}
	// Normal operation must still work on these designs.
	c.InitRow(1, 5, 0xAA)
	c.Activate(1, 5, 0)
	c.Precharge(1, tRAS)
	if f := c.CompareRow(1, 5, 0xAA); f != 0 {
		t.Errorf("normal ACT/PRE flipped %d bits on non-HiRA design", f)
	}
}

func TestNormalActivationRoundTrip(t *testing.T) {
	c := testChip(42)
	c.InitRow(0, 100, 0xAA)
	c.Activate(0, 100, 0)
	c.Precharge(0, tRAS)
	if f := c.CompareRow(0, 100, 0xAA); f != 0 {
		t.Errorf("normal ACT/PRE flipped %d bits", f)
	}
}

func TestEarlyPrechargeDestroysRow(t *testing.T) {
	c := testChip(42)
	c.InitRow(0, 100, 0xAA)
	c.Activate(0, 100, 0)
	c.Precharge(0, dram.FromNanoseconds(0.5)) // before sense amps enable
	c.Precharge(0, 20*nsT)                    // force resolution
	if c.CompareRow(0, 100, 0xAA) == 0 {
		t.Error("row intact after sub-sense-amp-enable precharge")
	}
}

func TestActToOpenBankIgnored(t *testing.T) {
	c := testChip(42)
	c.InitRow(0, 100, 0xAA)
	c.InitRow(0, 900, 0x55)
	c.Activate(0, 100, 0)
	c.Activate(0, 900, 50*nsT) // no PRE in between: dropped
	if c.Ignored != 1 {
		t.Errorf("Ignored = %d, want 1", c.Ignored)
	}
	c.Precharge(0, 90*nsT)
	if f := c.CompareRow(0, 100, 0xAA); f != 0 {
		t.Errorf("open row flipped %d bits after ignored ACT", f)
	}
}

func hammerPair(c *Chip, bank, a, b, times int, at dram.Time) dram.Time {
	for i := 0; i < times; i++ {
		c.Activate(bank, a, at)
		at += tRAS
		c.Precharge(bank, at)
		at += tRP
		c.Activate(bank, b, at)
		at += tRAS
		c.Precharge(bank, at)
		at += tRP
	}
	return at
}

func TestRowHammerInducesFlipsAtThreshold(t *testing.T) {
	c := testChip(42)
	victim := 10
	nrh := c.Intrinsics(0, victim).NRH
	c.InitRow(0, victim, 0xAA)
	c.InitRow(0, victim-1, 0x55)
	c.InitRow(0, victim+1, 0x55)
	// Each pair iteration disturbs the victim twice.
	pairs := int(nrh)/2 + 64
	hammerPair(c, 0, victim-1, victim+1, pairs, 0)
	if c.CompareRow(0, victim, 0xAA) == 0 {
		t.Errorf("no flips after %d disturbances (NRH %f)", 2*pairs, nrh)
	}
	// A fresh init and sub-threshold hammering must not flip.
	c.InitRow(0, victim, 0xAA)
	hammerPair(c, 0, victim-1, victim+1, int(nrh)/4, 0)
	if f := c.CompareRow(0, victim, 0xAA); f != 0 {
		t.Errorf("%d flips after sub-threshold hammering", f)
	}
}

func TestRefreshResetsDisturbance(t *testing.T) {
	c := testChip(42)
	victim := 10
	nrh := c.Intrinsics(0, victim).NRH
	c.InitRow(0, victim, 0xAA)
	c.InitRow(0, victim-1, 0x55)
	c.InitRow(0, victim+1, 0x55)
	// Hammer to ~70% of threshold, refresh the victim by activating it,
	// then hammer another ~70%: no flips expected (residual is small).
	pairs := int(nrh * 0.35)
	at := hammerPair(c, 0, victim-1, victim+1, pairs, 0)
	c.Activate(0, victim, at)
	c.Precharge(0, at+tRAS)
	at += tRAS + tRP
	hammerPair(c, 0, victim-1, victim+1, pairs, at)
	if f := c.CompareRow(0, victim, 0xAA); f != 0 {
		t.Errorf("victim flipped %d bits despite mid-hammer refresh", f)
	}
}

func TestSubarrayBoundaryBlocksHammer(t *testing.T) {
	c := testChip(42)
	g := c.Geometry()
	// Last row of subarray 0 and first row of subarray 1 are separated by
	// a sense-amp stripe: hammering one must not disturb the other.
	a := g.RowsPerSubarray - 1
	v := g.RowsPerSubarray
	c.InitRow(0, v, 0xAA)
	nrh := c.Intrinsics(0, v).NRH
	for i := 0; i < int(nrh)*2; i++ {
		c.Activate(0, a, dram.Time(i)*(tRAS+tRP))
		c.Precharge(0, dram.Time(i)*(tRAS+tRP)+tRAS)
	}
	if f := c.CompareRow(0, v, 0xAA); f != 0 {
		t.Errorf("cross-subarray hammering flipped %d bits", f)
	}
}

func TestBanksAreIndependent(t *testing.T) {
	c := testChip(42)
	c.InitRow(0, 100, 0xAA)
	c.InitRow(1, 100, 0x55)
	c.Activate(0, 100, 0)
	c.Activate(1, 100, dram.Nanosecond) // different bank: fine
	c.Precharge(0, tRAS)
	c.Precharge(1, tRAS+dram.Nanosecond)
	if c.Ignored != 0 {
		t.Errorf("Ignored = %d, want 0", c.Ignored)
	}
	if c.CompareRow(0, 100, 0xAA) != 0 || c.CompareRow(1, 100, 0x55) != 0 {
		t.Error("independent banks interfered")
	}
}

func TestIntrinsicsWithinDesignClips(t *testing.T) {
	c := testChip(13)
	f := func(raw uint16) bool {
		row := int(raw) % c.Geometry().RowsPerBank()
		in := c.Intrinsics(0, row)
		return in.SAEnableNS >= 0.7 && in.SAEnableNS <= 2.9 &&
			in.IOConnectNS >= 4.0 && in.IOConnectNS <= 8.0 &&
			in.WLHoldNS >= 6.1 && in.WLHoldNS <= 9.0 &&
			in.NRH >= 9600 && in.NRH <= 82000 &&
			in.Residual >= -0.18 && in.Residual <= 0.8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRefreshCommandRestoresRows(t *testing.T) {
	c := testChip(42)
	victim := 1 // within the first REF batch of 8 rows
	c.InitRow(0, victim, 0xAA)
	c.InitRow(0, victim-1, 0x55)
	c.InitRow(0, victim+1, 0x55)
	nrh := c.Intrinsics(0, victim).NRH
	pairs := int(nrh * 0.35)
	at := hammerPair(c, 0, victim-1, victim+1, pairs, 0)
	c.Refresh(at) // internal counter starts at row 0: covers the victim
	hammerPair(c, 0, victim-1, victim+1, pairs, at+dram.FromNanoseconds(350))
	if f := c.CompareRow(0, victim, 0xAA); f != 0 {
		t.Errorf("victim flipped %d bits despite REF between hammer halves", f)
	}
}
