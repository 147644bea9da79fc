package dram_test

import (
	"testing"

	"hira/internal/dram"
	"hira/internal/dram/dramtest"
)

// buildHiRATrace constructs a legal HiRA refresh-refresh sequence followed
// by a normal close.
func buildHiRATrace(tm dram.Timing, at dram.Time, bank dram.BankID, rowA, rowB int) []dram.Command {
	loc := func(row int) dram.Location { return dram.Location{BankID: bank, Row: row} }
	t1, t2 := tm.T1, tm.T2
	return []dram.Command{
		{Kind: dram.KindACT, At: at, Loc: loc(rowA), Phase: dram.HiRAFirstACT},
		{Kind: dram.KindPRE, At: at + t1, Loc: loc(rowA), Phase: dram.HiRAInterruptPRE},
		{Kind: dram.KindACT, At: at + t1 + t2, Loc: loc(rowB), Phase: dram.HiRASecondACT},
		{Kind: dram.KindPRE, At: at + t1 + t2 + tm.TRAS, Loc: loc(rowB)},
	}
}

func TestVerifierAcceptsLegalReadSequence(t *testing.T) {
	o := dram.DefaultOrg()
	tm := dram.DDR4_2400(8)
	v := dramtest.NewVerifier(o, tm)
	loc := dram.Location{Row: 42, Col: 3}
	cmds := []dram.Command{
		{Kind: dram.KindACT, At: 0, Loc: loc},
		{Kind: dram.KindRD, At: tm.TRCD, Loc: loc},
		{Kind: dram.KindRD, At: tm.TRCD + tm.TCCD, Loc: loc},
		{Kind: dram.KindPRE, At: tm.TRAS + tm.TRTP, Loc: loc},
		{Kind: dram.KindACT, At: tm.TRAS + tm.TRTP + tm.TRP, Loc: dram.Location{Row: 7}},
	}
	for _, c := range cmds {
		v.Check(c)
	}
	if err := v.Err(); err != nil {
		t.Fatalf("legal trace rejected: %v", err)
	}
}

func TestVerifierAcceptsHiRASequence(t *testing.T) {
	o := dram.DefaultOrg()
	tm := dram.DDR4_2400(8)
	v := dramtest.NewVerifier(o, tm)
	for _, c := range buildHiRATrace(tm, 0, dram.BankID{}, 10, 600) {
		v.Check(c)
	}
	if err := v.Err(); err != nil {
		t.Fatalf("HiRA trace rejected: %v", err)
	}
}

func TestVerifierRejectsViolations(t *testing.T) {
	o := dram.DefaultOrg()
	tm := dram.DDR4_2400(8)
	loc := dram.Location{Row: 42}
	cases := []struct {
		name string
		cmds []dram.Command
	}{
		{"tRCD", []dram.Command{
			{Kind: dram.KindACT, At: 0, Loc: loc},
			{Kind: dram.KindRD, At: tm.TRCD - dram.Nanosecond, Loc: loc},
		}},
		{"tRAS", []dram.Command{
			{Kind: dram.KindACT, At: 0, Loc: loc},
			{Kind: dram.KindPRE, At: tm.TRAS - dram.Nanosecond, Loc: loc},
		}},
		{"tRP", []dram.Command{
			{Kind: dram.KindACT, At: 0, Loc: loc},
			{Kind: dram.KindPRE, At: tm.TRAS, Loc: loc},
			{Kind: dram.KindACT, At: tm.TRAS + tm.TRP - dram.Nanosecond, Loc: loc},
		}},
		{"read to closed bank", []dram.Command{
			{Kind: dram.KindRD, At: 0, Loc: loc},
		}},
		{"wrong open row", []dram.Command{
			{Kind: dram.KindACT, At: 0, Loc: loc},
			{Kind: dram.KindRD, At: tm.TRCD, Loc: dram.Location{Row: 43}},
		}},
		{"ACT to open bank", []dram.Command{
			{Kind: dram.KindACT, At: 0, Loc: loc},
			{Kind: dram.KindACT, At: tm.TRC, Loc: dram.Location{Row: 43}},
		}},
		{"REF with open bank", []dram.Command{
			{Kind: dram.KindACT, At: 0, Loc: loc},
			{Kind: dram.KindREF, At: tm.TRAS, Loc: loc},
		}},
		{"command during tRFC", []dram.Command{
			{Kind: dram.KindREF, At: 0, Loc: loc},
			{Kind: dram.KindACT, At: tm.TRFC / 2, Loc: loc},
		}},
		{"HiRA second ACT unarmed", []dram.Command{
			{Kind: dram.KindACT, At: 0, Loc: loc, Phase: dram.HiRASecondACT},
		}},
		{"HiRA bad t2", []dram.Command{
			{Kind: dram.KindACT, At: 0, Loc: loc, Phase: dram.HiRAFirstACT},
			{Kind: dram.KindPRE, At: tm.T1, Loc: loc, Phase: dram.HiRAInterruptPRE},
			{Kind: dram.KindACT, At: tm.T1 + tm.T2 + dram.Nanosecond, Loc: dram.Location{Row: 600}, Phase: dram.HiRASecondACT},
		}},
		{"command bus conflict", []dram.Command{
			{Kind: dram.KindACT, At: 0, Loc: loc},
			{Kind: dram.KindACT, At: tm.TCK / 2, Loc: dram.Location{BankID: dram.BankID{Bank: 5}, Row: 1}},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := dramtest.NewVerifier(o, tm)
			for _, cmd := range c.cmds {
				v.Check(cmd)
			}
			if err := v.Err(); err == nil {
				t.Errorf("verifier accepted illegal trace %q", c.name)
			}
		})
	}
}

func TestVerifierTFAW(t *testing.T) {
	o := dram.DefaultOrg()
	// The paper's tFAW (16ns) can never bind at tRRD spacing; widen it so
	// the four-activation-window logic is exercised.
	tm := dram.DDR4_2400(8)
	tm.TFAW = 30 * dram.Nanosecond
	v := dramtest.NewVerifier(o, tm)
	// Five ACTs within one tFAW window must fail. Alternate bank groups
	// and space by tRRD_S so tRRD itself is not the violation.
	banks := []int{0, 4, 8, 12, 1}
	at := dram.Time(0)
	for _, b := range banks {
		v.Check(dram.Command{Kind: dram.KindACT, At: at, Loc: dram.Location{BankID: dram.BankID{Bank: b}, Row: 1}})
		at += tm.TRRD
	}
	if err := v.Err(); err == nil {
		t.Error("verifier accepted 5 ACTs inside tFAW")
	}
	// Four ACTs then a fifth past both the window and tRRD must pass.
	v2 := dramtest.NewVerifier(o, tm)
	at = 0
	for _, b := range banks[:4] {
		v2.Check(dram.Command{Kind: dram.KindACT, At: at, Loc: dram.Location{BankID: dram.BankID{Bank: b}, Row: 1}})
		at += tm.TRRD
	}
	v2.Check(dram.Command{Kind: dram.KindACT, At: tm.TFAW + tm.TCK, Loc: dram.Location{BankID: dram.BankID{Bank: 1}, Row: 1}})
	if err := v2.Err(); err != nil {
		t.Errorf("verifier rejected legal tFAW pacing: %v", err)
	}
}

func TestVerifierCheckTraceSorts(t *testing.T) {
	o := dram.DefaultOrg()
	tm := dram.DDR4_2400(8)
	loc := dram.Location{Row: 42}
	cmds := []dram.Command{
		{Kind: dram.KindPRE, At: tm.TRAS, Loc: loc},
		{Kind: dram.KindACT, At: 0, Loc: loc},
	}
	if vs := dramtest.NewVerifier(o, tm).CheckTrace(cmds); len(vs) != 0 {
		t.Errorf("CheckTrace found violations in legal unordered trace: %v", vs)
	}
}

func TestRefreshAuditorREFAdvancesPointer(t *testing.T) {
	o := dram.DefaultOrg()
	tm := dram.DDR4_2400(8)
	a := dramtest.NewRefreshAuditor(o, tm)
	if a.RowsPerREF() != 8 {
		t.Fatalf("RowsPerREF = %d, want 8", a.RowsPerREF())
	}
	// Issue exactly one refresh window's worth of REFs; every row must be
	// refreshed and nothing stale.
	refs := o.RowsPerBank() / a.RowsPerREF()
	at := dram.Time(0)
	for i := 0; i < refs; i++ {
		at += tm.TREFI
		a.Observe(dram.Command{Kind: dram.KindREF, At: at})
	}
	// Right after the sweep finishes, the earliest-refreshed rows are one
	// sweep old (< tREFW): nothing may be stale.
	if stale := a.StaleAt(at, 5); len(stale) != 0 {
		t.Errorf("rows stale after full REF sweep: %v", stale)
	}
}

func TestRefreshAuditorDetectsStaleness(t *testing.T) {
	o := dram.DefaultOrg()
	tm := dram.DDR4_2400(8)
	a := dramtest.NewRefreshAuditor(o, tm)
	stale := a.StaleAt(tm.TREFW+dram.Nanosecond, 3)
	if len(stale) == 0 {
		t.Fatal("no stale rows reported after tREFW with no refreshes")
	}
	if len(stale) > 3 {
		t.Errorf("limit not honoured: got %d entries", len(stale))
	}
}

func TestRefreshAuditorACTRefreshesRow(t *testing.T) {
	o := dram.DefaultOrg()
	tm := dram.DDR4_2400(8)
	a := dramtest.NewRefreshAuditor(o, tm)
	a.Observe(dram.Command{Kind: dram.KindACT, At: tm.TREFW, Loc: dram.Location{Row: 5}})
	for _, s := range a.StaleAt(tm.TREFW+dram.Nanosecond, 0) {
		if s.Row == 5 && s.Bank == (dram.BankID{}) {
			t.Error("activated row still reported stale")
		}
	}
	if age := a.OldestAge(tm.TREFW + dram.Nanosecond); age <= tm.TREFW {
		t.Errorf("OldestAge = %v, want > tREFW", age)
	}
}
