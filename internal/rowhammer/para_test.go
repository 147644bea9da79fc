package rowhammer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLegacyPthRoundTrip(t *testing.T) {
	for _, nrh := range []int{64, 128, 256, 512, 1024, 50000} {
		pth := LegacyPth(nrh, ReliabilityTarget)
		got := LegacySuccessProbability(pth, nrh)
		if math.Abs(got-ReliabilityTarget)/ReliabilityTarget > 1e-6 {
			t.Errorf("NRH=%d: pRH(pthLegacy) = %g, want %g", nrh, got, ReliabilityTarget)
		}
	}
}

func TestKFactorMatchesPaperValues(t *testing.T) {
	c := DefaultConfig()
	// §9.1.3: for old chips (NRH=50K, pth=0.001), k = 1.0005.
	if k := c.KFactor(0.001, 50000, 0); math.Abs(k-1.0005) > 0.0005 {
		t.Errorf("k(50K, 0.001) = %.5f, want ~1.0005", k)
	}
	// For NRH=1024 (legacy pth ~0.066..0.068), k = 1.0331.
	if k := c.KFactor(LegacyPth(1024, ReliabilityTarget), 1024, 0); math.Abs(k-1.0331) > 0.004 {
		t.Errorf("k(1024) = %.4f, want ~1.0331", k)
	}
	// For NRH=64, k = 1.3212.
	if k := c.KFactor(LegacyPth(64, ReliabilityTarget), 64, 0); math.Abs(k-1.3212) > 0.01 {
		t.Errorf("k(64) = %.4f, want ~1.3212", k)
	}
}

func TestSolvePthMatchesFig11a(t *testing.T) {
	c := DefaultConfig()
	// Fig. 11a anchor points (tRefSlack = 0): pth ~0.068 at NRH=1024 and
	// ~0.860 at NRH=64.
	p1024, err := c.SolvePth(1024, 0, ReliabilityTarget)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1024-0.068) > 0.004 {
		t.Errorf("pth(1024) = %.4f, want ~0.068", p1024)
	}
	p64, err := c.SolvePth(64, 0, ReliabilityTarget)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 11a reads ~0.86 off the plot; the analytic solution of
	// Expression 8 lands at 0.839 (the k-factor checks pin the model to
	// the paper's exact 1.0331/1.3212 values, so the small gap is plot
	// read-off error).
	if math.Abs(p64-0.85) > 0.03 {
		t.Errorf("pth(64) = %.4f, want ~0.84-0.86", p64)
	}
	// Fig. 11a: at NRH=128, pth = 0.48, 0.49, 0.50, 0.52 for slack
	// 0, 2tRC, 4tRC, 8tRC.
	want := map[int]float64{0: 0.48, 2: 0.49, 4: 0.50, 8: 0.52}
	for slack, w := range want {
		p, err := c.SolvePth(128, float64(slack), ReliabilityTarget)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-w) > 0.025 {
			t.Errorf("pth(128, slack=%dtRC) = %.4f, want ~%.2f", slack, p, w)
		}
	}
}

func TestSolvedPthMeetsTarget(t *testing.T) {
	c := DefaultConfig()
	for _, nrh := range Fig11NRHValues() {
		for _, slack := range Fig11SlackValues() {
			pth, err := c.SolvePth(nrh, float64(slack), ReliabilityTarget)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.SuccessProbability(pth, nrh, float64(slack)); got > ReliabilityTarget*1.0001 {
				t.Errorf("NRH=%d slack=%d: pRH(solved pth) = %g > target", nrh, slack, got)
			}
		}
	}
}

func TestLegacyPthMissesTarget(t *testing.T) {
	// Fig. 11b: PARA-Legacy's pth yields pRH above 1e-15 under the
	// revisited model, increasingly so at small NRH.
	c := DefaultConfig()
	prev := 0.0
	for _, nrh := range []int{1024, 256, 64} {
		p := c.SuccessProbability(LegacyPth(nrh, ReliabilityTarget), nrh, 0)
		if p <= ReliabilityTarget {
			t.Errorf("NRH=%d: legacy pth meets target under revisited model", nrh)
		}
		if p <= prev {
			t.Errorf("NRH=%d: legacy gap should grow as NRH shrinks", nrh)
		}
		prev = p
	}
	// Paper: 1.03e-15 at NRH=1024 and 1.32e-15 at NRH=64.
	p1024 := c.SuccessProbability(LegacyPth(1024, ReliabilityTarget), 1024, 0)
	if math.Abs(p1024/1e-15-1.033) > 0.01 {
		t.Errorf("legacy pRH(1024) = %g, want ~1.03e-15", p1024)
	}
	p64 := c.SuccessProbability(LegacyPth(64, ReliabilityTarget), 64, 0)
	if math.Abs(p64/1e-15-1.321) > 0.02 {
		t.Errorf("legacy pRH(64) = %g, want ~1.32e-15", p64)
	}
}

// TestPthMonotonicity: pth decreases with NRH and increases with slack.
// Low NRH with high slack is unreachable (SolvePth errors: no pth meets
// the target), so the property also holds the errors consistent —
// reachability only improves with NRH and only worsens with slack — and
// compares pth values where both sides are reachable. The generator is
// seeded, so every run checks the same draws.
func TestPthMonotonicity(t *testing.T) {
	c := DefaultConfig()
	compared := 0
	f := func(rawNRH uint16, rawSlack uint8) bool {
		nrh := 64 + int(rawNRH)%4096
		slack := float64(rawSlack % 16)
		p1, err1 := c.SolvePth(nrh, slack, ReliabilityTarget)
		p2, err2 := c.SolvePth(nrh*2, slack, ReliabilityTarget)
		p3, err3 := c.SolvePth(nrh, slack+8, ReliabilityTarget)
		if err1 != nil {
			return err3 != nil // more slack cannot make a target reachable
		}
		if err2 != nil {
			return false // a higher NRH cannot make it unreachable
		}
		compared++
		return p2 < p1 && (err3 != nil || p3 >= p1)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	if compared < 15 {
		t.Errorf("only %d of 30 draws were reachable enough to compare", compared)
	}
}

func TestSuccessProbabilityMonotoneInPth(t *testing.T) {
	c := DefaultConfig()
	prev := math.Inf(1)
	for pth := 0.05; pth <= 1.0; pth += 0.05 {
		p := c.SuccessProbability(pth, 256, 0)
		if p > prev {
			t.Errorf("pRH not decreasing at pth=%.2f", pth)
		}
		prev = p
	}
}

func TestSuccessProbabilityEdges(t *testing.T) {
	c := DefaultConfig()
	if c.SuccessProbability(0, 256, 0) != 1 {
		t.Error("pth=0 must make the attack certain")
	}
	if p := c.SuccessProbability(1, 256, 0); p > 1e-50 {
		t.Errorf("pth=1 leaves pRH=%g", p)
	}
}

func TestSolvePthErrors(t *testing.T) {
	c := DefaultConfig()
	if _, err := c.SolvePth(0, 0, ReliabilityTarget); err == nil {
		t.Error("accepted NRH=0")
	}
	if _, err := c.SolvePth(256, 0, 0); err == nil {
		t.Error("accepted target=0")
	}
	if _, err := c.SolvePth(256, 0, 1.5); err == nil {
		t.Error("accepted target>1")
	}
}

func TestFig11Grid(t *testing.T) {
	c := DefaultConfig()
	pts, err := c.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(Fig11NRHValues())*len(Fig11SlackValues()) {
		t.Fatalf("grid size %d", len(pts))
	}
	for _, p := range pts {
		if p.Pth <= 0 || p.Pth > 1 {
			t.Errorf("%+v: pth out of range", p)
		}
		if p.Pth < p.LegacyPth {
			t.Errorf("NRH=%d slack=%d: revisited pth %.4f below legacy %.4f",
				p.NRH, p.SlackTRC, p.Pth, p.LegacyPth)
		}
		if p.K < 1 {
			t.Errorf("NRH=%d: k = %.4f < 1", p.NRH, p.K)
		}
	}
}
