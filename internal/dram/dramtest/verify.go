// Package dramtest holds the test oracles for the DRAM model: Verifier
// checks a command trace against the DDR4 timing rules, with HiRA's
// engineered ACT–PRE–ACT sequence as the single sanctioned exception to
// tRAS and tRP, and RefreshAuditor proves no row outlives tREFW. The
// dram, sched and core tests feed them every command the code under test
// issues. No production package imports dramtest; CI fails the build if
// one does.
package dramtest

import (
	"fmt"
	"sort"

	"hira/internal/dram"
)

// Violation describes one timing or protocol rule broken by a command
// trace.
type Violation struct {
	Cmd  dram.Command
	Rule string
}

func (v Violation) Error() string {
	return fmt.Sprintf("dram: %s violated by %v", v.Rule, v.Cmd)
}

// Verifier checks a stream of DRAM commands against the DDR4 protocol and
// timing constraints, treating HiRA's engineered ACT–PRE–ACT sequence as
// the single sanctioned exception to tRAS and tRP.
//
// Feed commands in nondecreasing time order with Check; collected
// violations are available from Violations. A Verifier is not safe for
// concurrent use.
type Verifier struct {
	org dram.Org
	t   dram.Timing

	// HiRA t1/t2 acceptance windows. A HiRAInterruptPRE must trail its
	// HiRAFirstACT by a duration in [MinT1, MaxT1]; a HiRASecondACT must
	// trail the interrupted precharge by a duration in [MinT2, MaxT2].
	MinT1, MaxT1 dram.Time
	MinT2, MaxT2 dram.Time

	banks      []*bankState
	ranks      []*rankState
	chans      []*chanState
	violations []Violation
	lastTime   dram.Time
}

type bankState struct {
	open        bool
	openRow     int
	lastACT     dram.Time
	lastPRE     dram.Time
	lastRDEnd   dram.Time // time the last read finished occupying the row (for tRTP accounting we store RD issue)
	lastRD      dram.Time
	lastWR      dram.Time
	hiraArmed   bool // a HiRAInterruptPRE was seen; next ACT may be HiRASecondACT
	hiraPREAt   dram.Time
	hiraFirst   bool      // open row was opened by HiRAFirstACT
	restoreFrom dram.Time // time charge restoration started for the open row
}

type rankState struct {
	actTimes     []dram.Time // recent ACT times for tFAW
	lastACT      dram.Time
	lastACTGroup int
	refBusy      dram.Time // rank unavailable until this time due to REF
	lastCmd      dram.Time
}

type chanState struct {
	lastCmd dram.Time
	has     bool
}

// NewVerifier returns a Verifier for the given organization and timing.
// The HiRA windows default to exactly [T1, T1] and [T2, T2].
func NewVerifier(org dram.Org, t dram.Timing) *Verifier {
	v := &Verifier{
		org:   org,
		t:     t,
		MinT1: t.T1, MaxT1: t.T1,
		MinT2: t.T2, MaxT2: t.T2,
	}
	v.banks = make([]*bankState, org.TotalBanks())
	for i := range v.banks {
		v.banks[i] = &bankState{lastACT: -dram.MaxTime(), lastPRE: -dram.MaxTime(), lastRD: -dram.MaxTime(), lastWR: -dram.MaxTime()}
	}
	v.ranks = make([]*rankState, org.Channels*org.RanksPerChannel)
	for i := range v.ranks {
		v.ranks[i] = &rankState{lastACT: -dram.MaxTime(), refBusy: -dram.MaxTime(), lastCmd: -dram.MaxTime()}
	}
	v.chans = make([]*chanState, org.Channels)
	for i := range v.chans {
		v.chans[i] = &chanState{}
	}
	v.lastTime = -dram.MaxTime()
	return v
}

func (v *Verifier) fail(c dram.Command, format string, args ...any) {
	v.violations = append(v.violations, Violation{Cmd: c, Rule: fmt.Sprintf(format, args...)})
}

// Violations returns all violations recorded so far.
func (v *Verifier) Violations() []Violation { return v.violations }

// Err returns the first violation as an error, or nil if the trace so far
// is clean.
func (v *Verifier) Err() error {
	if len(v.violations) == 0 {
		return nil
	}
	return v.violations[0]
}

func (v *Verifier) rank(c dram.Command) *rankState {
	return v.ranks[c.Loc.Channel*v.org.RanksPerChannel+c.Loc.Rank]
}

func (v *Verifier) bank(c dram.Command) *bankState {
	return v.banks[c.Loc.Flat(v.org)]
}

// Check validates one command against the state accumulated so far.
// Commands must arrive in nondecreasing time order.
func (v *Verifier) Check(c dram.Command) {
	if c.At < v.lastTime {
		v.fail(c, "command order: time moved backwards (last %v)", v.lastTime)
	}
	v.lastTime = c.At

	// Channel command bus: one command per tCK.
	ch := v.chans[c.Loc.Channel]
	if ch.has && c.At-ch.lastCmd < v.t.TCK {
		v.fail(c, "command bus conflict: previous command at %v, tCK %v", ch.lastCmd, v.t.TCK)
	}
	ch.lastCmd = c.At
	ch.has = true

	// Rank refresh occupancy.
	rk := v.rank(c)
	if c.At < rk.refBusy {
		v.fail(c, "tRFC: rank busy refreshing until %v", rk.refBusy)
	}

	switch c.Kind {
	case dram.KindACT:
		v.checkACT(c, rk)
	case dram.KindPRE:
		v.checkPRE(c)
	case dram.KindPREA:
		for b := 0; b < v.org.BanksPerRank(); b++ {
			cc := c
			cc.Loc.Bank = b
			if v.bank(cc).open {
				v.checkPRE(cc)
			}
		}
	case dram.KindRD, dram.KindWR:
		v.checkColumn(c)
	case dram.KindREF:
		v.checkREF(c, rk)
	default:
		v.fail(c, "unknown command kind")
	}
	rk.lastCmd = c.At
}

func (v *Verifier) checkACT(c dram.Command, rk *rankState) {
	b := v.bank(c)

	if c.Phase == dram.HiRASecondACT {
		if !b.hiraArmed {
			v.fail(c, "HiRA second ACT without interrupted precharge")
		} else {
			gap := c.At - b.hiraPREAt
			if gap < v.MinT2 || gap > v.MaxT2 {
				v.fail(c, "HiRA t2 out of window: %v not in [%v,%v]", gap, v.MinT2, v.MaxT2)
			}
		}
		// The first row's wordline stays asserted; the second activation
		// begins the foreground row's restoration.
		b.hiraArmed = false
		b.open = true
		b.openRow = c.Loc.Row
		b.lastACT = c.At
		b.restoreFrom = c.At
		v.countACT(c, rk)
		return
	}

	if b.open {
		v.fail(c, "ACT to open bank (row %d open)", b.openRow)
	}
	if b.hiraArmed {
		v.fail(c, "non-HiRA ACT while HiRA precharge pending")
	}
	if c.At-b.lastPRE < v.t.TRP && b.lastPRE > -dram.MaxTime() {
		v.fail(c, "tRP: %v since PRE, need %v", c.At-b.lastPRE, v.t.TRP)
	}
	if c.At-b.lastACT < v.t.TRC && b.lastACT > -dram.MaxTime() {
		v.fail(c, "tRC: %v since ACT, need %v", c.At-b.lastACT, v.t.TRC)
	}
	b.open = true
	b.openRow = c.Loc.Row
	b.lastACT = c.At
	b.restoreFrom = c.At
	b.hiraFirst = c.Phase == dram.HiRAFirstACT
	v.countACT(c, rk)
}

func (v *Verifier) countACT(c dram.Command, rk *rankState) {
	// tRRD between ACTs to the same rank: tRRD_S across bank groups,
	// tRRD_L within one.
	group := c.Loc.BankGroup(v.org)
	if rk.lastACT > -dram.MaxTime() {
		need := v.t.TRRD
		if group == rk.lastACTGroup {
			need = v.t.TRRDL
		}
		if c.At-rk.lastACT < need {
			v.fail(c, "tRRD: %v since rank ACT, need %v", c.At-rk.lastACT, need)
		}
	}
	rk.lastACT = c.At
	rk.lastACTGroup = group
	// tFAW: at most 4 ACTs per rolling window.
	cut := c.At - v.t.TFAW
	times := rk.actTimes[:0]
	for _, at := range rk.actTimes {
		if at > cut {
			times = append(times, at)
		}
	}
	rk.actTimes = append(times, c.At)
	if len(rk.actTimes) > 4 {
		v.fail(c, "tFAW: %d ACTs within %v", len(rk.actTimes), v.t.TFAW)
	}
}

func (v *Verifier) checkPRE(c dram.Command) {
	b := v.bank(c)
	if !b.open {
		// Precharging a precharged bank is legal (NOP effect), common in
		// real controllers; nothing to check.
		return
	}
	if c.Phase == dram.HiRAInterruptPRE {
		gap := c.At - b.lastACT
		if gap < v.MinT1 || gap > v.MaxT1 {
			v.fail(c, "HiRA t1 out of window: %v not in [%v,%v]", gap, v.MinT1, v.MaxT1)
		}
		// The bank is now in the interrupted-precharge state: the first
		// row's buffer stays connected, waiting for the second ACT.
		b.hiraArmed = true
		b.hiraPREAt = c.At
		b.open = false
		b.lastPRE = c.At
		return
	}
	if c.At-b.restoreFrom < v.t.TRAS {
		v.fail(c, "tRAS: %v since ACT, need %v", c.At-b.restoreFrom, v.t.TRAS)
	}
	if b.lastRD > -dram.MaxTime() && c.At-b.lastRD < v.t.TRTP {
		v.fail(c, "tRTP: %v since RD, need %v", c.At-b.lastRD, v.t.TRTP)
	}
	if b.lastWR > -dram.MaxTime() {
		wrDone := b.lastWR + v.t.CWL + v.t.TBL + v.t.TWR
		if c.At < wrDone {
			v.fail(c, "tWR: PRE at %v before write recovery ends at %v", c.At, wrDone)
		}
	}
	b.open = false
	b.lastPRE = c.At
}

func (v *Verifier) checkColumn(c dram.Command) {
	b := v.bank(c)
	if !b.open {
		v.fail(c, "%v to precharged bank", c.Kind)
		return
	}
	if b.openRow != c.Loc.Row {
		v.fail(c, "%v to row %d but row %d is open", c.Kind, c.Loc.Row, b.openRow)
	}
	if c.At-b.lastACT < v.t.TRCD {
		v.fail(c, "tRCD: %v since ACT, need %v", c.At-b.lastACT, v.t.TRCD)
	}
	last := b.lastRD
	if b.lastWR > last {
		last = b.lastWR
	}
	if last > -dram.MaxTime() && c.At-last < v.t.TCCD {
		v.fail(c, "tCCD: %v since last column access, need %v", c.At-last, v.t.TCCD)
	}
	if c.Kind == dram.KindRD {
		b.lastRD = c.At
	} else {
		b.lastWR = c.At
	}
	if c.AutoPrecharge {
		// Model auto-precharge as an implicit PRE at the earliest legal
		// point; the scheduler is responsible for honouring tRAS before
		// reusing the bank, which the subsequent ACT's tRP/tRC checks
		// will catch through lastPRE.
		pre := c
		pre.Kind = dram.KindPRE
		pre.Phase = dram.HiRANone
		pre.At = v.earliestAutoPRE(c, b)
		v.checkPRE(pre)
	}
}

func (v *Verifier) earliestAutoPRE(c dram.Command, b *bankState) dram.Time {
	at := b.restoreFrom + v.t.TRAS
	if c.Kind == dram.KindRD {
		if t := c.At + v.t.TRTP; t > at {
			at = t
		}
	} else {
		if t := c.At + v.t.CWL + v.t.TBL + v.t.TWR; t > at {
			at = t
		}
	}
	return at
}

func (v *Verifier) checkREF(c dram.Command, rk *rankState) {
	// All banks in the rank must be precharged.
	for bank := 0; bank < v.org.BanksPerRank(); bank++ {
		cc := c
		cc.Loc.Bank = bank
		if v.bank(cc).open {
			v.fail(c, "REF with bank %d open", bank)
		}
		if v.bank(cc).hiraArmed {
			v.fail(c, "REF with bank %d in interrupted-precharge state", bank)
		}
	}
	rk.refBusy = c.At + v.t.TRFC
}

// CheckTrace sorts cmds by time (stably) and feeds them through a fresh
// pass of the verifier, returning all violations. It is a convenience for
// tests that accumulate an unordered trace.
func (v *Verifier) CheckTrace(cmds []dram.Command) []Violation {
	sorted := make([]dram.Command, len(cmds))
	copy(sorted, cmds)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	for _, c := range sorted {
		v.Check(c)
	}
	return v.violations
}
