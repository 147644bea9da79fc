package core

import (
	"fmt"

	"hira/internal/dram"
	"hira/internal/sched"
)

// PeriodicMode selects how periodic (retention) refresh is performed.
type PeriodicMode uint8

const (
	// PeriodicNone performs no periodic refresh (the Fig. 9a "No
	// Refresh" ideal, or Fig. 12's baseline normalization when combined
	// with preventive modes).
	PeriodicNone PeriodicMode = iota
	// PeriodicREF uses conventional rank-level REF commands.
	PeriodicREF
	// PeriodicHiRA uses row-granularity refreshes scheduled by HiRA-MC.
	PeriodicHiRA
)

// PreventiveMode selects the RowHammer preventive-refresh policy.
type PreventiveMode uint8

const (
	// PreventiveNone disables PARA.
	PreventiveNone PreventiveMode = iota
	// PreventiveImmediate is PARA without HiRA: each triggered refresh is
	// performed immediately after the aggressor's activation.
	PreventiveImmediate
	// PreventiveHiRA queues PARA's refreshes with tRefSlack and lets
	// HiRA-MC parallelize them.
	PreventiveHiRA
)

// Config parameterizes HiRA-MC.
type Config struct {
	Org    dram.Org
	Timing dram.Timing

	Periodic   PeriodicMode
	Preventive PreventiveMode

	// RefSlack is tRefSlack: the maximum delay between generating a
	// refresh request and performing it (HiRA-N uses N x tRC).
	RefSlack dram.Time

	// Pth is PARA's probability threshold (solved by
	// rowhammer.Config.SolvePth for the target NRH and RefSlack).
	Pth float64

	// SPT is the subarray pairs table; required for PeriodicHiRA or
	// PreventiveHiRA.
	SPT *SPT

	// Seed drives PARA's sampling.
	Seed uint64
}

// refEntry is one Refresh Table entry (§5: deadline, bank id, type).
type refEntry struct {
	deadline   dram.Time
	preventive bool
	row        int // preventive target row; -1 for periodic (RefPtr decides)
}

// bankRC is HiRA-MC's per-bank state.
type bankRC struct {
	ch      int        // owning channel
	queue   []refEntry // Refresh Table slice for this bank, FIFO by deadline
	prDepth int        // occupancy of the 4-entry PR-FIFO portion

	// minDeadline caches the earliest deadline in queue (valid while
	// queue is non-empty), so Mandatory's arming scan and Piggyback's
	// urgency filter are O(1) per bank when nothing is due.
	minDeadline dram.Time

	// RefPtr Table slice: next row to refresh per subarray, plus the
	// count of rows refreshed this window for balanced advancement.
	refPtr    []int
	refreshed []int
	// minRef caches min(refreshed): the starvation floor the
	// refresh-completeness guards compare against.
	minRef int

	periodicDue dram.Time

	// armed is a mandatory op built from queue entries, re-offered until
	// the controller performs it.
	armed      sched.Op
	armedSet   bool
	armedCount int // queue entries consumed by armed (1 or 2)

	// offered is a piggyback candidate awaiting confirmation.
	offered    *refEntry
	offeredRow int
}

// pushEntry appends a Refresh Table entry, maintaining the bank's
// minDeadline and the channel's deadline lower bound.
func (m *HiRAMC) pushEntry(b *bankRC, e refEntry) {
	if len(b.queue) == 0 || e.deadline < b.minDeadline {
		b.minDeadline = e.deadline
	}
	if e.deadline < m.chNext[b.ch] {
		m.chNext[b.ch] = e.deadline
	}
	b.queue = append(b.queue, e)
}

// removeEntry deletes the entry at index i, maintaining minDeadline.
func (b *bankRC) removeEntry(i int) {
	b.queue = append(b.queue[:i], b.queue[i+1:]...)
	b.recalcMinDeadline()
}

func (b *bankRC) recalcMinDeadline() {
	if len(b.queue) == 0 {
		return
	}
	min := b.queue[0].deadline
	for _, e := range b.queue[1:] {
		if e.deadline < min {
			min = e.deadline
		}
	}
	b.minDeadline = min
}

// RefreshTableCap is the per-rank Refresh Table capacity (§6: 68 entries).
const RefreshTableCap = 68

// PRFIFOCap is the per-bank PR-FIFO capacity (§6: 4 entries).
const PRFIFOCap = 4

// HiRAMC is the HiRA memory controller, a sched.RefreshEngine.
type HiRAMC struct {
	cfg   Config
	banks []*bankRC // flat: channel, rank, bank
	ref   *sched.BaselineREF

	rng uint64

	interval    dram.Time // periodic generation interval per bank
	lead        dram.Time // deadline lead time for mandatory ops
	windowReset dram.Time
	genPtr      int        // rotation pointer for periodic generation
	scratch     []sched.Op // reusable Mandatory result buffer
	allSA       []int      // reusable all-subarrays candidate list

	// Per-channel aggregates gating the per-tick Mandatory work: chNext
	// is a lower bound on the earliest queued deadline in the channel
	// (refreshed to the exact value on every full bank scan), chArmed
	// counts banks holding an armed op.
	chNext  []dram.Time
	chArmed []int

	// Stats.
	Generated, GeneratedPreventive uint64
	// Expedited counts structure-full overflows: each one pulled the
	// bank's oldest queued entry's deadline to now to drain it early.
	// Nothing is ever dropped.
	Expedited uint64
}

// expediteOldest pulls the deadline of b's oldest queued entry to now,
// preferring the oldest preventive entry (the PR-FIFO occupant the full
// structure most needs to shed); with no preventive queued it expedites
// the bank's front entry instead. A bank with an empty queue (the rank
// cap tripped on siblings) has nothing local to expedite.
func (m *HiRAMC) expediteOldest(b *bankRC, now dram.Time) {
	idx := -1
	for i := range b.queue {
		if b.queue[i].preventive {
			idx = i
			break
		}
	}
	if idx < 0 {
		if len(b.queue) == 0 {
			return
		}
		idx = 0
	}
	if b.queue[idx].deadline > now {
		b.queue[idx].deadline = now
		if now < b.minDeadline {
			b.minDeadline = now
		}
		if now < m.chNext[b.ch] {
			m.chNext[b.ch] = now
		}
	}
}

var _ sched.RefreshEngine = (*HiRAMC)(nil)

// New constructs HiRA-MC.
func New(cfg Config) (*HiRAMC, error) {
	if cfg.Periodic == PeriodicHiRA || cfg.Preventive == PreventiveHiRA {
		if cfg.SPT == nil {
			return nil, fmt.Errorf("core: HiRA modes require an SPT")
		}
	}
	if cfg.Preventive != PreventiveNone && (cfg.Pth < 0 || cfg.Pth > 1) {
		return nil, fmt.Errorf("core: Pth %f out of [0,1]", cfg.Pth)
	}
	m := &HiRAMC{cfg: cfg, rng: cfg.Seed | 1}
	total := cfg.Org.TotalBanks()
	m.banks = make([]*bankRC, total)
	// Generate faster than one row per (tREFW / rowsPerBank) so that
	// tRefSlack, deadline lead, and the ±1-count jitter of balanced
	// subarray selection (worth one rotation step, i.e. a 1/rowsPerSubarray
	// fraction of the window) never push a row past its retention window.
	m.interval = cfg.Timing.PeriodicRowInterval(cfg.Org.RowsPerBank()) * 7 / 8
	// Case 2 of §5.1.3: a refresh becomes mandatory when its deadline is
	// less than tRC away.
	m.lead = cfg.Timing.TRC
	m.windowReset = cfg.Timing.TREFW
	m.allSA = make([]int, cfg.Org.SubarraysPerBank)
	for i := range m.allSA {
		m.allSA[i] = i
	}
	m.chNext = make([]dram.Time, cfg.Org.Channels)
	for i := range m.chNext {
		m.chNext[i] = dram.MaxTime()
	}
	m.chArmed = make([]int, cfg.Org.Channels)
	perChan := cfg.Org.RanksPerChannel * cfg.Org.BanksPerRank()
	for i := range m.banks {
		b := &bankRC{
			ch:        i / perChan,
			refPtr:    make([]int, cfg.Org.SubarraysPerBank),
			refreshed: make([]int, cfg.Org.SubarraysPerBank),
		}
		// Stagger periodic generation across all banks (§5.1.1: spread
		// command-bus pressure over time); global staggering also makes
		// bank index order equal due order for the generation rotation.
		b.periodicDue = m.interval * dram.Time(i+1) / dram.Time(total)
		m.banks[i] = b
	}
	if cfg.Periodic == PeriodicREF {
		m.ref = sched.NewBaselineREF(cfg.Org, cfg.Timing)
	}
	return m, nil
}

func (m *HiRAMC) bank(ch, rank, bank int) *bankRC {
	return m.banks[(ch*m.cfg.Org.RanksPerChannel+rank)*m.cfg.Org.BanksPerRank()+bank]
}

func (m *HiRAMC) next() uint64 {
	x := m.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.rng = x
	return x
}

// rankLoad counts Refresh Table entries for a rank.
func (m *HiRAMC) rankLoad(ch, rank int) int {
	n := 0
	base := (ch*m.cfg.Org.RanksPerChannel + rank) * m.cfg.Org.BanksPerRank()
	for b := 0; b < m.cfg.Org.BanksPerRank(); b++ {
		n += len(m.banks[base+b].queue)
	}
	return n
}

// Tick implements sched.RefreshEngine: the Periodic Refresh Controller's
// request generation. All banks share one generation interval with
// staggered phases, so a rotating pointer visits them in due order and
// the per-tick cost is O(1) amortized regardless of bank count.
func (m *HiRAMC) Tick(now dram.Time) {
	if m.cfg.Periodic != PeriodicHiRA {
		return
	}
	for i := 0; i < len(m.banks); i++ {
		b := m.banks[m.genPtr]
		if now < b.periodicDue {
			return
		}
		for now >= b.periodicDue {
			m.pushEntry(b, refEntry{
				deadline: b.periodicDue + m.cfg.RefSlack,
				row:      -1,
			})
			m.Generated++
			b.periodicDue += m.interval
		}
		m.genPtr = (m.genPtr + 1) % len(m.banks)
	}
}

// NoteActivate implements sched.RefreshEngine: the Preventive Refresh
// Controller samples every demand activation with probability Pth and
// enqueues a neighbouring victim row refresh (PARA).
func (m *HiRAMC) NoteActivate(loc dram.Location, demand bool, now dram.Time) {
	if m.cfg.Preventive == PreventiveNone || m.cfg.Pth == 0 || !demand {
		return
	}
	r := m.next()
	if float64(r>>11)/(1<<53) >= m.cfg.Pth {
		return
	}
	victim := loc.Row - 1
	if m.next()&1 == 0 {
		victim = loc.Row + 1
	}
	if victim < 0 || victim >= m.cfg.Org.RowsPerBank() {
		victim = loc.Row // edge rows: refresh the row itself
	}
	b := m.bank(loc.Channel, loc.Rank, loc.Bank)
	deadline := now
	if m.cfg.Preventive == PreventiveHiRA {
		deadline = now + m.cfg.RefSlack
	}
	e := refEntry{deadline: deadline, preventive: true, row: victim}
	if b.prDepth >= PRFIFOCap || m.rankLoad(loc.Channel, loc.Rank) >= RefreshTableCap {
		// Structure full: force the oldest entry out immediately by
		// pulling its deadline to now, so the next Mandatory scan arms
		// and drains it. The new entry keeps its own deadline and is
		// admitted regardless (never drop a preventive refresh — that
		// would break the security guarantee), so occupancy can overshoot
		// the cap by the handful of entries that arrive while the
		// expedited one drains (bounded by the lead window, ~tRC).
		m.Expedited++
		m.expediteOldest(b, now)
	}
	b.prDepth++
	m.pushEntry(b, e)
	m.GeneratedPreventive++
}

// chooseSubarray picks, among candidate subarrays, the one with the fewest
// rows refreshed this window (§5.1.3: advance pointers in a balanced
// manner). Returns -1 if candidates is empty.
func (b *bankRC) chooseSubarray(candidates []int) int {
	best, bestCount := -1, int(^uint(0)>>1)
	for _, sa := range candidates {
		if b.refreshed[sa] < bestCount {
			best, bestCount = sa, b.refreshed[sa]
		}
	}
	return best
}

// Piggyback implements sched.RefreshEngine: Case 1 of §5.1.3. The demand
// access is about to activate loc.Row; offer a row whose subarray is
// isolated from the demand row's subarray.
func (m *HiRAMC) Piggyback(loc dram.Location, now dram.Time) (int, bool, bool) {
	if m.cfg.SPT == nil {
		return 0, false, false
	}
	b := m.bank(loc.Channel, loc.Rank, loc.Bank)
	b.offered = nil
	if b.armedSet || len(b.queue) == 0 {
		return 0, false, false
	}
	// Only entries whose deadline is approaching are worth hiding: a
	// refresh with ample slack left can still ride a later access or an
	// idle-bank window, while the HiRA prologue taxes this access by
	// t1+t2 and an extra activation now.
	urgency := 2 * m.cfg.Timing.TRC
	if b.minDeadline-now > urgency {
		return 0, false, false
	}
	demandSA := m.cfg.Org.SubarrayOfRow(loc.Row)
	// Iterate entries in deadline order (the queue is near-sorted:
	// periodic entries are generated in deadline order, preventive ones
	// appended with equal slack); find the earliest-deadline entry that
	// can pair with the demand subarray.
	bestIdx := -1
	var bestDeadline dram.Time
	for i := range b.queue {
		e := &b.queue[i]
		if e.deadline-now > urgency {
			continue
		}
		if e.preventive {
			if m.cfg.Preventive != PreventiveHiRA {
				continue
			}
			if !m.cfg.SPT.Isolated(demandSA, m.cfg.Org.SubarrayOfRow(e.row)) {
				continue
			}
		} else {
			if m.cfg.Periodic != PeriodicHiRA {
				continue
			}
		}
		if bestIdx < 0 || e.deadline < bestDeadline {
			bestIdx, bestDeadline = i, e.deadline
		}
	}
	if bestIdx < 0 {
		return 0, false, false
	}
	e := b.queue[bestIdx]
	row := e.row
	if !e.preventive {
		sa := b.chooseSubarray(m.cfg.SPT.Partners(demandSA))
		if sa < 0 {
			return 0, false, false
		}
		// Refresh-completeness guard: only piggyback if the chosen
		// subarray is not ahead of the globally least-refreshed one.
		// Otherwise decline; the entry will reach its deadline and be
		// performed on the most-starved subarray, so subarrays that are
		// never isolated from the demand stream's subarrays still meet
		// tREFW.
		if b.refreshed[sa] > b.minRef+2 {
			return 0, false, false
		}
		row = sa*m.cfg.Org.RowsPerSubarray + b.refPtr[sa]
	}
	b.offered = &b.queue[bestIdx]
	b.offeredRow = row
	return row, e.preventive, true
}

// Mandatory implements sched.RefreshEngine: Case 2 of §5.1.3. Entries
// whose deadline is within the lead window must be performed now, paired
// with another queued refresh when possible. Each bank may carry one
// armed op; banks are independent, so all armed ops are offered and the
// controller starts what resources allow.
func (m *HiRAMC) Mandatory(channel int, now dram.Time) []sched.Op {
	m.scratch = m.scratch[:0]
	if m.ref != nil {
		m.scratch = append(m.scratch, m.ref.Mandatory(channel, now)...)
	}
	// Fast path: no armed bank and the channel's earliest deadline (a
	// maintained lower bound) is beyond the lead window — nothing to arm
	// or re-offer.
	if m.chArmed[channel] == 0 && m.chNext[channel]-now > m.lead {
		return m.scratch
	}
	org := m.cfg.Org
	base := channel * org.RanksPerChannel * org.BanksPerRank()
	perChan := org.RanksPerChannel * org.BanksPerRank()

	chNext := dram.MaxTime()
	for rb := 0; rb < perChan; rb++ {
		b := m.banks[base+rb]
		if !b.armedSet && len(b.queue) > 0 && b.minDeadline-now <= m.lead {
			// Arm the earliest due entry of this bank.
			idx := -1
			for i := range b.queue {
				e := &b.queue[i]
				if e.deadline-now > m.lead {
					continue
				}
				if idx < 0 || e.deadline < b.queue[idx].deadline {
					idx = i
				}
			}
			if idx >= 0 {
				m.armOp(b, rb/org.BanksPerRank(), rb%org.BanksPerRank(), idx)
			}
		}
		if b.armedSet {
			m.scratch = append(m.scratch, b.armed)
		}
		if len(b.queue) > 0 && b.minDeadline < chNext {
			chNext = b.minDeadline
		}
	}
	m.chNext[channel] = chNext // lower bound is exact after a full scan
	return m.scratch
}

// NextEvent implements sched.RefreshEngine: the earliest strictly-future
// time a queued or yet-to-be-generated refresh can enter the mandatory
// window. Per-bank granularity matters: one bank's already-due entry must
// not mask another bank's future arming time, so only candidates after
// now survive. Banks holding an armed op are excluded — their next arming
// can only follow the op's completion, a command tick that rescans
// anyway — as are entries already inside the lead window (the controller
// tracks the resource times gating them).
func (m *HiRAMC) NextEvent(now dram.Time) dram.Time {
	next := dram.MaxTime()
	if m.ref != nil {
		if v := m.ref.NextEvent(now); v < next {
			next = v
		}
	}
	for _, b := range m.banks {
		if b.armedSet || len(b.queue) == 0 {
			continue
		}
		if v := b.minDeadline - m.lead; v > now && v < next {
			next = v
		}
	}
	if m.cfg.Periodic == PeriodicHiRA {
		// The next generated entry becomes mandatory RefSlack-lead after
		// generation, but never before it exists. The generation rotation
		// pointer always rests on the globally least-due bank.
		due := m.banks[m.genPtr].periodicDue
		v := due + m.cfg.RefSlack - m.lead
		if v < due {
			v = due
		}
		if v < next {
			next = v
		}
	}
	return next
}

// armOp converts the queue entry at idx (and, when possible, a pairable
// second entry) into a concrete refresh op, consuming the entries.
func (m *HiRAMC) armOp(b *bankRC, rank, bank, idx int) sched.Op {
	e := b.queue[idx]
	rowA, saA := m.resolveRow(b, e, -1)

	kind := sched.OpRowRefresh
	if e.preventive && m.cfg.Preventive == PreventiveImmediate {
		kind = sched.OpRowRefreshBlocking
	}
	op := sched.Op{Kind: kind, Rank: rank, Bank: bank, RowA: rowA, RowB: -1,
		PreventiveA: e.preventive}
	consumed := [2]int{idx, 0}
	nConsumed := 1

	if m.cfg.SPT != nil {
		// Refresh-refresh parallelization: find a second entry whose row
		// can share a HiRA operation with rowA.
		for j := range b.queue {
			if j == idx {
				continue
			}
			e2 := b.queue[j]
			rowB, _ := m.resolveRow(b, e2, saA)
			if rowB < 0 {
				continue
			}
			if !m.cfg.SPT.Isolated(saA, m.cfg.Org.SubarrayOfRow(rowB)) {
				continue
			}
			op = sched.Op{Kind: sched.OpHiRAPair, Rank: rank, Bank: bank, RowA: rowA, RowB: rowB,
				PreventiveA: e.preventive, PreventiveB: e2.preventive}
			consumed[1] = j
			nConsumed = 2
			break
		}
	}

	// Consume entries (highest index first to keep indices valid).
	if nConsumed == 2 && consumed[1] < consumed[0] {
		consumed[0], consumed[1] = consumed[1], consumed[0]
	}
	for i := nConsumed - 1; i >= 0; i-- {
		j := consumed[i]
		if b.queue[j].preventive {
			b.prDepth--
		}
		b.removeEntry(j)
	}
	b.armed = op
	b.armedSet = true
	b.armedCount = nConsumed
	m.chArmed[b.ch]++
	b.offered = nil
	return op
}

// resolveRow returns the concrete row for an entry. For periodic entries
// the RefPtr table picks a row: from any subarray when partnerSA < 0, or
// from a subarray isolated from partnerSA. Returns row = -1 when no
// eligible subarray exists.
func (m *HiRAMC) resolveRow(b *bankRC, e refEntry, partnerSA int) (row, sa int) {
	if e.preventive {
		return e.row, m.cfg.Org.SubarrayOfRow(e.row)
	}
	var candidates []int
	if partnerSA < 0 {
		candidates = m.allSA
	} else {
		candidates = m.cfg.SPT.Partners(partnerSA)
	}
	sa = b.chooseSubarray(candidates)
	if sa < 0 {
		return -1, -1
	}
	if partnerSA >= 0 && b.refreshed[sa] > b.minRef+2 {
		// Same completeness guard as Piggyback: a partner-constrained
		// choice must not run ahead of the most-starved subarray.
		return -1, -1
	}
	return sa*m.cfg.Org.RowsPerSubarray + b.refPtr[sa], sa
}

// NoteRefreshed implements sched.RefreshEngine: bookkeeping when the
// controller performs refresh work.
func (m *HiRAMC) NoteRefreshed(op sched.Op, channel int, now dram.Time) {
	if op.Kind == sched.OpRankREF {
		if m.ref != nil {
			m.ref.NoteRefreshed(op, channel, now)
		}
		return
	}
	b := m.bank(channel, op.Rank, op.Bank)
	if b.armedSet && b.armed.RowA == op.RowA && b.armed.RowB == op.RowB && b.armed.Kind == op.Kind {
		m.advancePtr(b, op.RowA)
		if op.Kind == sched.OpHiRAPair {
			m.advancePtr(b, op.RowB)
		}
		b.armedSet = false
		b.armedCount = 0
		m.chArmed[b.ch]--
		return
	}
	// Piggyback confirmation: consume the offered entry.
	if b.offered != nil && b.offeredRow == op.RowA {
		for i := range b.queue {
			if &b.queue[i] == b.offered {
				if b.queue[i].preventive {
					b.prDepth--
				}
				b.removeEntry(i)
				break
			}
		}
		b.offered = nil
		m.advancePtr(b, op.RowA)
	}
}

// advancePtr records that row was refreshed. Only periodic refreshes (row
// at the subarray's RefPtr) advance the pointer and the balance count:
// preventive refreshes restore single rows, which must not starve a
// subarray's periodic rotation.
func (m *HiRAMC) advancePtr(b *bankRC, row int) {
	if row < 0 {
		return
	}
	sa := m.cfg.Org.SubarrayOfRow(row)
	if row == sa*m.cfg.Org.RowsPerSubarray+b.refPtr[sa] {
		b.refPtr[sa] = (b.refPtr[sa] + 1) % m.cfg.Org.RowsPerSubarray
		b.refreshed[sa]++
		min := b.refreshed[0]
		for _, v := range b.refreshed[1:] {
			if v < min {
				min = v
			}
		}
		b.minRef = min
	}
}
