package sched

import (
	"sort"

	"hira/internal/dram"
)

// MaxForensicsThresholds bounds the number of hammer-count thresholds the
// forensics ledger tracks, so the per-activation threshold check is a
// fixed handful of compares and the crossing tallies live in a flat array.
const MaxForensicsThresholds = 4

// Flight-recorder shape: a small ring of recent commands is kept warm at
// all times; when a row's interref activation count crosses the highest
// configured threshold, the ring is flushed into the event log and the
// next recorderPost commands are recorded too, capturing the commands
// around each threshold-crossing episode. recorderCap bounds the total
// recorded events; once full, further events are counted as dropped.
const (
	recorderPre  = 64
	recorderPost = 192
	recorderCap  = 4096
)

// ForensicsConfig parameterizes the controller's RowHammer forensics
// ledger (see Controller.EnableForensics).
type ForensicsConfig struct {
	// Thresholds are interref activation counts whose crossings are
	// tallied (e.g. NRH/2 and NRH). At most MaxForensicsThresholds are
	// kept, sorted ascending; zero entries are dropped. Crossing the
	// highest threshold triggers the flight recorder.
	Thresholds []uint32
	// HotThreshold is the interref activation count at or above which an
	// adjacent row counts as a "hot" aggressor when classifying a
	// preventive refresh as useful vs wasted. 0 defaults to 1: any
	// activated neighbor makes the refresh useful.
	HotThreshold uint32
	// Recorder enables the DRAM command flight recorder.
	Recorder bool
}

// ForensicsTally is the cumulative forensics counter set. All fields are
// monotone, so measured-phase values are diffs of two snapshots (Sub),
// exactly like Stats.
type ForensicsTally struct {
	// DemandACTs counts row activations serving demand accesses — the
	// activations that disturb neighboring rows and advance the ledger.
	DemandACTs uint64 `json:"demand_acts"`
	// RefreshACTs counts activations performing explicit row-refresh work:
	// standalone refreshes, both rows of a HiRA refresh-refresh pair, and
	// the hidden row of a piggyback. It equals
	// StandaloneRefreshes + 2*HiRAPairs + HiRAPiggybacks.
	RefreshACTs uint64 `json:"refresh_acts"`
	// RowsReset counts explicit row refreshes that cleared a nonzero
	// interref count (the refresh landed on a row with recorded pressure).
	RowsReset uint64 `json:"rows_reset"`
	// REFRowsReset counts ledger rows with nonzero interref counts cleared
	// by rank-level REF rotation coverage.
	REFRowsReset uint64 `json:"ref_rows_reset"`
	// Crossings[i] counts events where a row's interref count reached
	// Thresholds[i]. Counts reset on refresh, so a row can cross again in
	// a later episode.
	Crossings [MaxForensicsThresholds]uint64 `json:"crossings"`
	// VictimCrossings[i] counts events where a row's victim exposure —
	// demand activations of adjacent rows since the row's own charge was
	// last restored — reached Thresholds[i]. Unlike Crossings (which only
	// the aggressor's own refresh resets), victim exposure resets whenever
	// the victim itself is activated or refreshed, so it directly scores
	// victim-refreshing mitigations (Graphene, RFM): an effective one keeps
	// every row's exposure below NRH.
	VictimCrossings [MaxForensicsThresholds]uint64 `json:"victim_crossings"`
	// PreventiveUseful counts preventive (PARA) refreshes whose victim had
	// an adjacent row with interref count >= HotThreshold at refresh time;
	// PreventiveWasted counts the ones that landed next to only cold rows.
	PreventiveUseful uint64 `json:"preventive_useful"`
	PreventiveWasted uint64 `json:"preventive_wasted"`
	// PeriodicRowRefreshes counts explicit row refreshes doing periodic
	// (retention) work. Useful + Wasted + Periodic == RefreshACTs.
	PeriodicRowRefreshes uint64 `json:"periodic_row_refreshes"`
	// PiggybackPreventive/PiggybackPeriodic split HiRA piggyback coverage
	// (refresh-access parallelizations) by the kind of entry hidden behind
	// the demand access.
	PiggybackPreventive uint64 `json:"piggyback_preventive"`
	PiggybackPeriodic   uint64 `json:"piggyback_periodic"`
}

// Sub returns t - o field by field (for measured-phase diffs).
func (t ForensicsTally) Sub(o ForensicsTally) ForensicsTally {
	t.DemandACTs -= o.DemandACTs
	t.RefreshACTs -= o.RefreshACTs
	t.RowsReset -= o.RowsReset
	t.REFRowsReset -= o.REFRowsReset
	for i := range t.Crossings {
		t.Crossings[i] -= o.Crossings[i]
		t.VictimCrossings[i] -= o.VictimCrossings[i]
	}
	t.PreventiveUseful -= o.PreventiveUseful
	t.PreventiveWasted -= o.PreventiveWasted
	t.PeriodicRowRefreshes -= o.PeriodicRowRefreshes
	t.PiggybackPreventive -= o.PiggybackPreventive
	t.PiggybackPeriodic -= o.PiggybackPeriodic
	return t
}

// Add returns t + o field by field (for cross-cell aggregation).
func (t ForensicsTally) Add(o ForensicsTally) ForensicsTally {
	t.DemandACTs += o.DemandACTs
	t.RefreshACTs += o.RefreshACTs
	t.RowsReset += o.RowsReset
	t.REFRowsReset += o.REFRowsReset
	for i := range t.Crossings {
		t.Crossings[i] += o.Crossings[i]
		t.VictimCrossings[i] += o.VictimCrossings[i]
	}
	t.PreventiveUseful += o.PreventiveUseful
	t.PreventiveWasted += o.PreventiveWasted
	t.PeriodicRowRefreshes += o.PeriodicRowRefreshes
	t.PiggybackPreventive += o.PiggybackPreventive
	t.PiggybackPeriodic += o.PiggybackPeriodic
	return t
}

// FlightEvent is one recorded DRAM command of the flight recorder, in a
// JSON-friendly shape.
type FlightEvent struct {
	At      dram.Time `json:"at_ps"`
	Channel int       `json:"channel"`
	Rank    int       `json:"rank"`
	Bank    int       `json:"bank"`
	Row     int       `json:"row"`
	Kind    string    `json:"kind"`
	Phase   string    `json:"phase,omitempty"`
}

// ForensicsReport is a point-in-time view of the forensics ledger.
type ForensicsReport struct {
	Thresholds   []uint32 `json:"thresholds"`
	HotThreshold uint32   `json:"hot_threshold"`
	// MaxInterrefACTs is the largest interref activation count any row
	// reached since forensics were enabled (running max, not reset by the
	// measured-phase mark).
	MaxInterrefACTs uint32 `json:"max_interref_acts"`
	// MaxVictimExposure is the largest victim exposure any row reached:
	// demand activations of its adjacent rows since the row's own charge
	// was last restored. A row crossing NRH here is a disturbance-error
	// candidate regardless of which rows did the hammering.
	MaxVictimExposure uint32 `json:"max_victim_exposure"`
	// BankMax is the running max per bank, flat across the system:
	// channel*banksPerChannel + rank*banksPerRank + bank.
	BankMax []uint32       `json:"bank_max,omitempty"`
	Tally   ForensicsTally `json:"tally"`
	// Events is the flight recorder's log (empty unless Recorder was
	// enabled); DroppedEvents counts commands lost once its 4096-event
	// log is full.
	Events        []FlightEvent `json:"events,omitempty"`
	DroppedEvents uint64        `json:"dropped_events,omitempty"`
}

// Forensics is the per-(bank,row) activation ledger: interref demand
// activation counts reset whenever a row's charge is restored (explicit
// row refresh or rank-REF rotation coverage, mirroring
// dramtest.RefreshAuditor's model), plus mitigation-efficacy tallies and an
// optional command flight recorder. Rows live in a sparse table
// (rowLedger) that holds only rows the run has touched; it grows by
// doubling, and the recorder is pre-sized at EnableForensics, so the
// hooked tick loop stays allocation-free once a run has seen its
// working set. Every hook is purely observational, so enabling
// forensics leaves the command stream and Stats bit-identical (see
// TestForensicsDifferential).
type Forensics struct {
	nThresh    int
	thresholds [MaxForensicsThresholds]uint32
	hot        uint32

	rowsPerBank     int
	rowsPerREF      int
	banksPerChannel int
	banksPerRank    int

	// rows holds each touched row's interref demand ACT count and victim
	// exposure: demand ACTs of the row's adjacent rows since its own
	// charge was last restored (by its own activation, an explicit
	// refresh, or rank-REF coverage).
	rows        rowLedger
	bankMax     []uint32 // per system-flat bank: running max interref count
	refPtr      []int32  // per system-flat bank: rank-REF rotation pointer
	maxExposure uint32   // running system-wide max victim exposure

	tally ForensicsTally

	// Flight recorder (pre == nil when disabled). eventsBase is how many
	// events the last checkpoint already holds; a differential
	// checkpoint carries only the events after it.
	pre        []dram.Command
	preIdx     int
	preFill    int
	post       int
	events     []dram.Command
	eventsBase int
	dropped    uint64
}

func newForensics(org dram.Org, t dram.Timing, cfg ForensicsConfig) *Forensics {
	f := &Forensics{
		rowsPerBank:     org.RowsPerBank(),
		rowsPerREF:      t.RowsPerREF(org.RowsPerBank()),
		banksPerChannel: org.BanksPerChannel(),
		banksPerRank:    org.BanksPerRank(),
	}
	ths := make([]uint32, 0, len(cfg.Thresholds))
	for _, th := range cfg.Thresholds {
		if th > 0 {
			ths = append(ths, th)
		}
	}
	sort.Slice(ths, func(i, j int) bool { return ths[i] < ths[j] })
	if len(ths) > MaxForensicsThresholds {
		ths = ths[:MaxForensicsThresholds]
	}
	f.nThresh = len(ths)
	copy(f.thresholds[:], ths)
	f.hot = cfg.HotThreshold
	if f.hot == 0 {
		f.hot = 1
	}
	banks := org.TotalBanks()
	f.rows = newRowLedger(banks * f.rowsPerBank)
	f.bankMax = make([]uint32, banks)
	f.refPtr = make([]int32, banks)
	if cfg.Recorder {
		f.pre = make([]dram.Command, recorderPre)
		f.events = make([]dram.Command, 0, recorderCap)
	}
	return f
}

// EnableForensics attaches a fresh forensics ledger to the controller.
// It must be called before the first Tick. The ledger checkpoints
// through SnapshotForensics/RestoreForensics, beside the controller's
// own Snapshot.
func (c *Controller) EnableForensics(cfg ForensicsConfig) {
	c.forensics = newForensics(c.cfg.Org, c.cfg.Timing, cfg)
}

// ForensicsEnabled reports whether a forensics ledger is attached.
func (c *Controller) ForensicsEnabled() bool { return c.forensics != nil }

// ForensicsTallyNow returns the current cumulative tally (zero value when
// forensics are disabled). Callers diff two snapshots with Sub for
// measured-phase values.
func (c *Controller) ForensicsTallyNow() ForensicsTally {
	if c.forensics == nil {
		return ForensicsTally{}
	}
	return c.forensics.tally
}

// ForensicsReport returns the ledger's current report, or false when
// forensics are disabled. The report copies its slices; it stays valid
// after further ticks.
func (c *Controller) ForensicsReport() (ForensicsReport, bool) {
	f := c.forensics
	if f == nil {
		return ForensicsReport{}, false
	}
	r := ForensicsReport{
		Thresholds:        append([]uint32(nil), f.thresholds[:f.nThresh]...),
		HotThreshold:      f.hot,
		MaxVictimExposure: f.maxExposure,
		BankMax:           append([]uint32(nil), f.bankMax...),
		Tally:             f.tally,
		DroppedEvents:     f.dropped,
	}
	for _, m := range f.bankMax {
		if m > r.MaxInterrefACTs {
			r.MaxInterrefACTs = m
		}
	}
	if len(f.events) > 0 {
		r.Events = make([]FlightEvent, len(f.events))
		for i, cmd := range f.events {
			r.Events[i] = FlightEvent{
				At:      cmd.At,
				Channel: cmd.Loc.Channel,
				Rank:    cmd.Loc.Rank,
				Bank:    cmd.Loc.Bank,
				Row:     cmd.Loc.Row,
				Kind:    cmd.Kind.String(),
				Phase:   cmd.Phase.String(),
			}
		}
	}
	return r, true
}

// rowKey returns the ledger key of a channel-flat bank's row.
func (f *Forensics) rowKey(ch, flat, row int) uint32 {
	return uint32((ch*f.banksPerChannel+flat)*f.rowsPerBank+row) + 1
}

// count returns key's interref count (0 when untracked).
func (f *Forensics) count(key uint32) uint32 {
	if e := f.rows.find(key); e != nil {
		return e.count
	}
	return 0
}

// demandACT advances row's interref count for a demand activation,
// maintaining the bank max, the threshold-crossing tallies, and (on the
// highest threshold) the flight-recorder trigger. The row's own count is
// deliberately not reset by its own activation: the ledger measures
// aggressor pressure accumulated between charge restorations, and an
// activation restores only the activated row while disturbing neighbors.
func (f *Forensics) demandACT(ch, flat, row int) {
	fb := ch*f.banksPerChannel + flat
	key := f.rowKey(ch, flat, row)
	e := f.rows.insert(key)
	n := e.count + 1
	e.count = n
	// Victim side: the activation restores the activated row's own
	// charge and disturbs its neighbors.
	e.exposure = 0
	f.rows.mark(key)
	f.tally.DemandACTs++
	if n > f.bankMax[fb] {
		f.bankMax[fb] = n
	}
	for t := 0; t < f.nThresh; t++ {
		if n == f.thresholds[t] {
			f.tally.Crossings[t]++
			if t == f.nThresh-1 {
				f.triggerRecorder()
			}
		}
	}
	if row > 0 {
		f.bumpExposure(key - 1)
	}
	if row+1 < f.rowsPerBank {
		f.bumpExposure(key + 1)
	}
}

// bumpExposure advances one row's victim exposure, maintaining the
// running max and the victim-side threshold-crossing tallies.
func (f *Forensics) bumpExposure(key uint32) {
	e := f.rows.insert(key)
	x := e.exposure + 1
	e.exposure = x
	f.rows.mark(key)
	if x > f.maxExposure {
		f.maxExposure = x
	}
	for t := 0; t < f.nThresh; t++ {
		if x == f.thresholds[t] {
			f.tally.VictimCrossings[t]++
		}
	}
}

// restore clears a tracked row's interref count and exposure (its
// charge was restored), reporting whether the count was nonzero.
func (f *Forensics) restore(key uint32) (hadCount bool) {
	e := f.rows.find(key)
	if e == nil || (e.count == 0 && e.exposure == 0) {
		return false
	}
	hadCount = e.count != 0
	e.count, e.exposure = 0, 0
	f.rows.mark(key)
	return hadCount
}

// refreshACT records an explicit row-refresh activation, clearing the
// refreshed row's interref count.
func (f *Forensics) refreshACT(ch, flat, row int) {
	f.tally.RefreshACTs++
	if f.restore(f.rowKey(ch, flat, row)) {
		f.tally.RowsReset++
	}
}

// classifyRefresh attributes one explicit row refresh at the moment it is
// committed (before the ledger rows it covers are reset): preventive
// refreshes are useful iff an adjacent row's interref count has reached
// HotThreshold — the victim actually had a hot aggressor — and wasted
// otherwise; periodic refreshes are tallied as retention work. piggyback
// additionally tallies HiRA refresh-access coverage by entry kind.
func (f *Forensics) classifyRefresh(ch, flat, row int, preventive, piggyback bool) {
	if piggyback {
		if preventive {
			f.tally.PiggybackPreventive++
		} else {
			f.tally.PiggybackPeriodic++
		}
	}
	if !preventive {
		f.tally.PeriodicRowRefreshes++
		return
	}
	key := f.rowKey(ch, flat, row)
	hot := false
	if row > 0 && f.count(key-1) >= f.hot {
		hot = true
	}
	if row+1 < f.rowsPerBank && f.count(key+1) >= f.hot {
		hot = true
	}
	if hot {
		f.tally.PreventiveUseful++
	} else {
		f.tally.PreventiveWasted++
	}
}

// rankREF applies a rank-level REF's row coverage to the ledger: for every
// bank of the rank, the next rowsPerREF rows (per an internal per-bank
// pointer that wraps at the bank size) have their charge restored —
// exactly dramtest.RefreshAuditor's model of the chip's internal refresh
// counter — so their interref counts clear. Each covered row is one
// table lookup, so REFRowsReset stays an exact tally of the nonzero
// counts cleared.
func (f *Forensics) rankREF(ch, rank int) {
	base := rank * f.banksPerRank
	for b := 0; b < f.banksPerRank; b++ {
		flat := base + b
		fb := ch*f.banksPerChannel + flat
		ptr := int(f.refPtr[fb])
		for i := 0; i < f.rowsPerREF; i++ {
			if f.restore(f.rowKey(ch, flat, ptr)) {
				f.tally.REFRowsReset++
			}
			ptr++
			if ptr == f.rowsPerBank {
				ptr = 0
			}
		}
		f.refPtr[fb] = int32(ptr)
	}
}

// record feeds one emitted command to the flight recorder: directly into
// the event log inside a post-trigger window, otherwise into the warm
// pre-trigger ring.
func (f *Forensics) record(cmd dram.Command) {
	if f.post > 0 {
		f.post--
		if len(f.events) < cap(f.events) {
			f.events = append(f.events, cmd)
		} else {
			f.dropped++
		}
		return
	}
	f.pre[f.preIdx] = cmd
	f.preIdx++
	if f.preIdx == len(f.pre) {
		f.preIdx = 0
	}
	if f.preFill < len(f.pre) {
		f.preFill++
	}
}

// triggerRecorder starts (or extends) a recording episode: the pre-ring
// is flushed in chronological order and the next recorderPost commands
// are recorded.
func (f *Forensics) triggerRecorder() {
	if f.pre == nil {
		return
	}
	start := f.preIdx - f.preFill
	if start < 0 {
		start += len(f.pre)
	}
	for i := 0; i < f.preFill; i++ {
		cmd := f.pre[(start+i)%len(f.pre)]
		if len(f.events) < cap(f.events) {
			f.events = append(f.events, cmd)
		} else {
			f.dropped++
		}
	}
	f.preFill, f.preIdx = 0, 0
	f.post = recorderPost
}
