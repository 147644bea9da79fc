package chip

import (
	"fmt"

	"hira/internal/dram"
)

// Salt constants for per-quantity deterministic sampling.
const (
	saltCoverage = iota + 1
	saltIsolation
	saltSAEnable
	saltIOConnect
	saltIODisconnect
	saltWLHold
	saltRestore
	saltNRH
	saltResidual
	saltResidualBank
	saltTrial
	saltFlips
)

// Chip is one virtual DDR4 device (one module's worth of lock-stepped
// chips, since all chips in a rank see the same commands). It accepts
// DRAM command events with explicit timestamps and models their electrical
// consequences on row data.
//
// A Chip is deterministic: two chips constructed with the same design,
// geometry and seed respond identically to identical command sequences.
// It is not safe for concurrent use.
type Chip struct {
	design Design
	geom   Geometry
	seed   uint64

	// iso[i*S+j] reports whether subarrays i and j share no bitline or
	// sense amplifier; identical across banks (design-induced, §4.4.1).
	iso []bool

	banks []*bank

	// Ignored counts protocol-violating commands the chip dropped (e.g.
	// ACT to an already-open bank outside a HiRA sequence).
	Ignored int

	trial uint64 // increments per InitRow; decorrelates threshold noise
	// rowsPerREF is how many rows each bank restores per REF command.
	rowsPerREF int
}

// bank tracks the wordline/precharge state of one bank.
type bank struct {
	idx    int
	rows   map[int]*row
	open   []openEntry
	prePen bool
	preAt  dram.Time
	refPtr int
}

// openEntry is a row whose wordline is currently asserted.
type openEntry struct {
	r     *row
	rowID int
	actAt dram.Time
}

// row is the lazily materialized state of one DRAM row.
type row struct {
	id      int
	pattern byte
	flips   int     // number of corrupted bits; 0 means intact
	disturb float64 // accumulated RowHammer disturbance
	nrhEff  float64 // this trial's effective flip threshold

	// Per-row electrical characteristics, nanoseconds.
	saEnable, ioConnect, ioDisconnect, wlHold, restoreNeed float64
	nrh, residual                                          float64
}

// New constructs a chip. rowsPerREF rows per bank are restored by each
// Refresh call (pass 0 for the DDR4 default of 8).
func New(design Design, geom Geometry, seed uint64, rowsPerREF int) *Chip {
	if rowsPerREF <= 0 {
		rowsPerREF = 8
	}
	c := &Chip{design: design, geom: geom, seed: seed, rowsPerREF: rowsPerREF}
	c.buildIsolation()
	c.banks = make([]*bank, geom.Banks)
	for i := range c.banks {
		c.banks[i] = &bank{idx: i, rows: make(map[int]*row)}
	}
	return c
}

// Design returns the chip's design parameters.
func (c *Chip) Design() Design { return c.design }

// Geometry returns the chip's geometry.
func (c *Chip) Geometry() Geometry { return c.geom }

// buildIsolation constructs the symmetric subarray isolation graph. Each
// subarray k has a design coverage target c_k ~ N(CoverageMean,
// CoverageSigma); the pair (i, j) is isolated with probability
// (c_i+c_j)/2. Adjacent subarrays share a sense-amplifier stripe in the
// open-bitline layout and are never isolated; a subarray is never isolated
// from itself.
func (c *Chip) buildIsolation() {
	s := c.geom.SubarraysPerBank
	cov := make([]float64, s)
	for k := range cov {
		cov[k] = gaussClip(mix(c.seed, saltCoverage, uint64(k)),
			c.design.CoverageMean, c.design.CoverageSigma, 0, 0.95)
	}
	c.iso = make([]bool, s*s)
	for i := 0; i < s; i++ {
		for j := i + 2; j < s; j++ {
			p := (cov[i] + cov[j]) / 2
			if uniform(mix(c.seed, saltIsolation, uint64(i), uint64(j))) < p {
				c.iso[i*s+j] = true
				c.iso[j*s+i] = true
			}
		}
	}
}

// Isolated reports whether two subarrays are electrically isolated: a HiRA
// pairing across them leaves both rows intact.
func (c *Chip) Isolated(sa1, sa2 int) bool {
	return c.iso[sa1*c.geom.SubarraysPerBank+sa2]
}

// SubarrayOf returns the subarray containing the row.
func (c *Chip) SubarrayOf(rowID int) int { return rowID / c.geom.RowsPerSubarray }

// IsolatedSubarrays returns all subarrays isolated from sa, in order.
func (c *Chip) IsolatedSubarrays(sa int) []int {
	var out []int
	for j := 0; j < c.geom.SubarraysPerBank; j++ {
		if c.Isolated(sa, j) {
			out = append(out, j)
		}
	}
	return out
}

func (c *Chip) bankAt(i int) *bank {
	if i < 0 || i >= len(c.banks) {
		panic(fmt.Sprintf("chip: bank %d out of range", i))
	}
	return c.banks[i]
}

// materialize returns the row state, sampling its electrical parameters on
// first touch.
func (c *Chip) materialize(b *bank, rowID int) *row {
	if r, ok := b.rows[rowID]; ok {
		return r
	}
	d := c.design
	bk, rw := uint64(b.idx), uint64(rowID)
	r := &row{
		id:           rowID,
		saEnable:     gaussClip(mix(c.seed, saltSAEnable, bk, rw), d.SAEnableMean, d.SAEnableSigma, 0.7, 2.9),
		ioConnect:    gaussClip(mix(c.seed, saltIOConnect, bk, rw), d.IOConnectMean, d.IOConnectSigma, 4.0, 8.0),
		ioDisconnect: gaussClip(mix(c.seed, saltIODisconnect, bk, rw), d.IODisconnectMean, d.IODisconnectSigma, 0.4, 1.45),
		wlHold:       gaussClip(mix(c.seed, saltWLHold, bk, rw), d.WLHoldMean, d.WLHoldSigma, 6.1, 9.0),
		restoreNeed:  gaussClip(mix(c.seed, saltRestore, bk, rw), d.RestoreNeedMean, d.RestoreNeedSigma, 17, 31),
		nrh:          gaussClip(mix(c.seed, saltNRH, bk, rw), d.NRHMean, d.NRHSigma, 9600, 82000),
	}
	bankOff := d.ResidualBankSigma * gauss(mix(c.seed, saltResidualBank, bk))
	r.residual = gaussClip(mix(c.seed, saltResidual, bk, rw),
		d.ResidualMean+bankOff, d.ResidualSigma, -0.18, 0.8)
	r.nrhEff = r.nrh
	b.rows[rowID] = r
	return r
}

func (c *Chip) corrupt(b *bank, r *row) {
	if r.flips == 0 {
		r.flips = 1 + int(mix(c.seed, saltFlips, uint64(b.idx), uint64(r.id), c.trial)%64)
	}
}

// resolve applies any precharge whose interruption window has expired at
// time now, closing the bank's open rows.
func (c *Chip) resolve(b *bank, now dram.Time) {
	if !b.prePen {
		return
	}
	// The wordline-disable delay of the earliest-opened row bounds the
	// interruption window.
	hold := dram.MaxTime()
	for _, e := range b.open {
		h := dram.FromNanoseconds(e.r.wlHold)
		if h < hold {
			hold = h
		}
	}
	if now-b.preAt < hold {
		return // still interruptible
	}
	for _, e := range b.open {
		c.closeRow(b, e, b.preAt, b.preAt+dram.FromNanoseconds(e.r.wlHold))
	}
	b.open = b.open[:0]
	b.prePen = false
}

// closeRow disables a row's wordline and applies the charge consequences.
// preAt is when the closing precharge was issued (the sense amplifiers
// must have been enabled by then: the paper's lower bound on t1); wlOffAt
// is when the wordline actually turns off, which bounds how much
// restoration the row received.
func (c *Chip) closeRow(b *bank, e openEntry, preAt, wlOffAt dram.Time) {
	switch {
	case (preAt - e.actAt).Nanoseconds() < e.r.saEnable:
		// The cell shared charge with the bitline but the precharge hit
		// before the sense amps could restore it: data destroyed.
		c.corrupt(b, e.r)
	case (wlOffAt - e.actAt).Nanoseconds() >= e.r.restoreNeed:
		// Full restoration doubles as a refresh: accumulated disturbance
		// collapses to the per-row residual.
		e.r.disturb *= e.r.residual
		if e.r.disturb < 0 {
			e.r.disturb = 0
		}
	default:
		// Sense amps latched the value but write-back was cut short: data
		// survives, disturbance is not reset.
	}
}

// hammer applies one activation's disturbance to the row's in-subarray
// neighbours (rows across a subarray boundary are separated by a
// sense-amplifier stripe and are not disturbed).
func (c *Chip) hammer(b *bank, rowID int) {
	sa := c.SubarrayOf(rowID)
	for _, n := range [2]int{rowID - 1, rowID + 1} {
		if n < 0 || n >= c.geom.RowsPerBank() || c.SubarrayOf(n) != sa {
			continue
		}
		v := c.materialize(b, n)
		if c.isOpen(b, n) {
			continue // an asserted wordline pins the cells; no disturbance
		}
		v.disturb++
		if v.disturb >= v.nrhEff {
			c.corrupt(b, v)
		}
	}
}

func (c *Chip) isOpen(b *bank, rowID int) bool {
	for _, e := range b.open {
		if e.rowID == rowID {
			return true
		}
	}
	return false
}

// Activate processes an ACT command at time now.
func (c *Chip) Activate(bankIdx, rowID int, now dram.Time) {
	b := c.bankAt(bankIdx)
	c.resolve(b, now)

	if b.prePen {
		// The precharge is still interruptible: this is the second ACT of
		// a HiRA sequence.
		c.activateHiRASecond(b, rowID, now)
		return
	}
	if len(b.open) > 0 {
		// ACT to an open bank outside a HiRA window: the chip drops it.
		c.Ignored++
		return
	}
	r := c.materialize(b, rowID)
	b.open = append(b.open, openEntry{r: r, rowID: rowID, actAt: now})
	c.hammer(b, rowID)
}

// activateHiRASecond implements the electrical outcome of interrupting a
// pending precharge with a new activation (§3's walk-through).
func (c *Chip) activateHiRASecond(b *bank, rowID int, now dram.Time) {
	first := b.open[0]
	t2ns := (now - b.preAt).Nanoseconds()

	t1ns := (b.preAt - first.actAt).Nanoseconds()
	second := c.materialize(b, rowID)

	if t1ns < first.r.saEnable {
		// Sense amps were not yet enabled when the precharge hit: the
		// first row's charge is lost.
		c.corrupt(b, first.r)
	}
	if t1ns > first.r.ioConnect {
		// The first row's buffer had already connected to the bank I/O;
		// the precharge could not be hidden and the sequence glitches the
		// first row.
		c.corrupt(b, first.r)
	}
	if t2ns < first.r.ioDisconnect {
		// The first row's buffer is still driving the bank I/O when the
		// second row activates: both rows see contention.
		c.corrupt(b, first.r)
		c.corrupt(b, second)
	}
	if !c.Isolated(c.SubarrayOf(first.rowID), c.SubarrayOf(rowID)) {
		// Shared bitlines/sense amps: charge sharing corrupts both rows.
		c.corrupt(b, first.r)
		c.corrupt(b, second)
	}

	// The first row's wordline stays asserted (restoration continues);
	// the second row opens alongside it.
	b.prePen = false
	b.open = append(b.open, openEntry{r: second, rowID: rowID, actAt: now})
	c.hammer(b, rowID)
}

// nonHiRAPREGuardNS: designs that do not support HiRA drop a precharge
// whose distance from the activation grossly violates tRAS (§12's
// hypothesis for Micron- and Samsung-manufactured chips). Precharges this
// many nanoseconds or more after the ACT are always honoured.
const nonHiRAPREGuardNS = 15

// Precharge processes a PRE command at time now.
func (c *Chip) Precharge(bankIdx int, now dram.Time) {
	b := c.bankAt(bankIdx)
	c.resolve(b, now)
	if len(b.open) == 0 {
		return // precharging a precharged bank is a no-op
	}
	if !c.design.SupportsHiRA {
		for _, e := range b.open {
			if (now - e.actAt).Nanoseconds() < nonHiRAPREGuardNS {
				// The chip acts as if it never received the command.
				c.Ignored++
				return
			}
		}
	}
	if b.prePen {
		// A second PRE while one is pending: close everything now.
		for _, e := range b.open {
			c.closeRow(b, e, b.preAt, now)
		}
		b.open = b.open[:0]
		b.prePen = false
		return
	}
	b.prePen = true
	b.preAt = now
}

// Refresh processes an all-bank REF at time now: each bank's next
// rowsPerREF rows are fully restored via the internal refresh counter.
func (c *Chip) Refresh(now dram.Time) {
	for _, b := range c.banks {
		c.resolve(b, now)
		for i := 0; i < c.rowsPerREF; i++ {
			if r, ok := b.rows[b.refPtr]; ok {
				r.disturb *= r.residual
				if r.disturb < 0 {
					r.disturb = 0
				}
			}
			b.refPtr++
			if b.refPtr == c.geom.RowsPerBank() {
				b.refPtr = 0
			}
		}
	}
}

// InitRow is the test equipment's direct write: it stores the pattern,
// clears corruption and disturbance, and rolls this trial's effective
// RowHammer threshold (a ±2% measurement noise around the row's intrinsic
// threshold, as real repeated measurements show).
func (c *Chip) InitRow(bankIdx, rowID int, pattern byte) {
	b := c.bankAt(bankIdx)
	r := c.materialize(b, rowID)
	r.pattern = pattern
	r.flips = 0
	r.disturb = 0
	c.trial++
	r.nrhEff = r.nrh * (1 + 0.02*gauss(mix(c.seed, saltTrial, c.trial)))
}

// CompareRow reads back a row and returns the number of bits that differ
// from the expected pattern. The bank must be precharged (or the pending
// precharge expired) for a faithful read; callers go through a normal
// ACT/RD/PRE via the softmc layer, which calls this after closing.
func (c *Chip) CompareRow(bankIdx, rowID int, pattern byte) int {
	b := c.bankAt(bankIdx)
	c.resolve(b, dram.MaxTime()/2)
	r := c.materialize(b, rowID)
	flips := r.flips
	if r.pattern != pattern {
		// Whole-row pattern mismatch: every byte differs; report a
		// row-sized flip count.
		flips += 8 * c.geom.RowsPerSubarray // arbitrary large count
	}
	return flips
}

// RowIntrinsics exposes a row's sampled characteristics for tests and
// reporting (it does not disturb state beyond materializing the row).
type RowIntrinsics struct {
	SAEnableNS, IOConnectNS, IODisconnectNS, WLHoldNS, RestoreNeedNS float64
	NRH, Residual                                                    float64
}

// Intrinsics returns the electrical characteristics of a row.
func (c *Chip) Intrinsics(bankIdx, rowID int) RowIntrinsics {
	r := c.materialize(c.bankAt(bankIdx), rowID)
	return RowIntrinsics{
		SAEnableNS:     r.saEnable,
		IOConnectNS:    r.ioConnect,
		IODisconnectNS: r.ioDisconnect,
		WLHoldNS:       r.wlHold,
		RestoreNeedNS:  r.restoreNeed,
		NRH:            r.nrh,
		Residual:       r.residual,
	}
}
