// Package sched implements the cycle-level DDR4 memory request scheduler
// of the simulated system (Table 3): FR-FCFS with an open-row policy,
// 64-entry read and write queues per channel, per-bank timing state,
// command- and data-bus contention, tFAW/tRRD power constraints, and
// pluggable refresh engines (none, conventional rank-level REF, or
// HiRA-MC via the RefreshEngine interface implemented in internal/core).
//
// The controller advances in command-clock ticks (tCK). Every command it
// places on a channel's command bus can be captured through CommandHook,
// which the test suite feeds to dramtest.Verifier to prove the scheduler
// never violates timing constraints, and to dramtest.RefreshAuditor to
// prove no row ever exceeds its retention window.
//
// The scheduler core is event-driven and allocation-free in steady state:
// requests live in freelisted intrusive nodes queued per bank and ordered
// across banks by their channel-wide arrival number, the FR-FCFS passes
// touch only banks with work, and a channel that provably cannot issue a
// command caches its next event time and skips the scheduling scans until
// then. The test suite keeps the seed's tick-by-tick linear scanner as an
// oracle and holds the two command-for-command and stat-for-stat identical
// (TestControllerDifferential).
package sched

import "hira/internal/dram"

// Request is one memory request entering the controller.
type Request struct {
	Loc    dram.Location
	Write  bool
	Core   int
	Token  uint64
	Arrive dram.Time
}

// OpKind classifies a refresh operation demanded by a RefreshEngine.
type OpKind uint8

const (
	// OpNone means no operation.
	OpNone OpKind = iota
	// OpRankREF is a conventional all-bank REF to a rank.
	OpRankREF
	// OpRowRefresh refreshes a single row with nominal ACT+PRE timing.
	OpRowRefresh
	// OpHiRAPair refreshes RowA concurrently with refreshing RowB using a
	// HiRA sequence (refresh-refresh parallelization).
	OpHiRAPair
	// OpRowRefreshBlocking refreshes a single row the way a conventional
	// (non-HiRA) controller performs a preventive refresh: as an atomic
	// high-priority operation that holds the whole rank for a row cycle.
	OpRowRefreshBlocking
)

// Op is a refresh operation the engine obliges the controller to perform.
type Op struct {
	Kind       OpKind
	Rank, Bank int // Bank is rank-relative; ignored for OpRankREF
	RowA, RowB int // RowA for single; RowA (hidden) + RowB for pairs
	// PreventiveA/PreventiveB report whether RowA/RowB refresh a PARA
	// victim rather than performing periodic retention work. They are
	// forensics attribution only: the controller's scheduling and the
	// engine's bookkeeping ignore them.
	PreventiveA, PreventiveB bool
}

// RefreshEngine is the controller's refresh policy. Implementations:
// NoRefresh, BaselineREF (this package), and HiRA-MC (internal/core).
type RefreshEngine interface {
	// Tick is called once per controller tick so the engine can generate
	// refresh requests.
	Tick(now dram.Time)
	// Mandatory returns the operations on the channel that must start now
	// (deadlines reached), in priority order. Banks are independent, so
	// several refreshes may be due concurrently; the controller starts as
	// many as resources allow, one command per tick. The returned slice
	// may be reused by the engine across calls.
	Mandatory(channel int, now dram.Time) []Op
	// Piggyback is consulted when the controller is about to activate a
	// demand row: the engine may return a row in the same bank to refresh
	// "for free" via a HiRA prologue (refresh-access parallelization).
	// preventive reports whether the offered row is a PARA victim (vs
	// periodic retention work) — forensics attribution only.
	Piggyback(loc dram.Location, now dram.Time) (row int, preventive, ok bool)
	// NoteActivate informs the engine of every row activation and
	// whether it serves a demand access (PARA's sampling point) or
	// refresh work.
	NoteActivate(loc dram.Location, demand bool, now dram.Time)
	// NoteRefreshed informs the engine that rows of a bank were refreshed
	// (through any mechanism) at time now. row < 0 with kind OpRankREF
	// reports a whole-rank REF.
	NoteRefreshed(op Op, channel int, now dram.Time)
	// NextEvent returns a lower bound on the next time the engine's
	// Mandatory set can grow: the earliest moment a queued or
	// yet-to-be-generated refresh becomes due, or dram.MaxTime() if none
	// is in sight. The controller uses it to skip idle ticks; returning
	// an early bound is always safe (it only causes a spurious wake),
	// returning a late one is not. Operations already visible through
	// Mandatory need not be reported — the controller tracks the
	// resource times gating them.
	NextEvent(now dram.Time) dram.Time
}

// Stats aggregates controller activity.
type Stats struct {
	Reads, Writes             uint64
	RowHits, RowMisses        uint64
	ACTs, PREs, REFs          uint64
	HiRAPiggybacks            uint64 // refresh-access parallelizations
	HiRAPairs                 uint64 // refresh-refresh parallelizations
	StandaloneRefreshes       uint64 // deadline row refreshes without pairing
	SeqBlocked, CanACTBlocked uint64
	ReadLatencySum            dram.Time
	ReadCount                 uint64
}

// Config parameterizes a Controller.
type Config struct {
	Org    dram.Org
	Timing dram.Timing
	// ReadQueueCap and WriteQueueCap default to Table 3's 64.
	ReadQueueCap, WriteQueueCap int
	// WriteHigh/WriteLow are write-drain watermarks (defaults 48/16).
	WriteHigh, WriteLow int
}

func (c Config) withDefaults() Config {
	if c.ReadQueueCap == 0 {
		c.ReadQueueCap = 64
	}
	if c.WriteQueueCap == 0 {
		c.WriteQueueCap = 64
	}
	if c.WriteHigh == 0 {
		c.WriteHigh = c.WriteQueueCap * 3 / 4
	}
	if c.WriteLow == 0 {
		c.WriteLow = c.WriteQueueCap / 4
	}
	return c
}

// Queue kinds: each channel keeps one read and one write queue.
const (
	qRead = iota
	qWrite
)

// reqNode is an intrusive queue node holding one request. Nodes are
// recycled through the controller's freelist so steady-state enqueue and
// dequeue never allocate. Each node is linked into its bank's FIFO bucket
// (bnext/bprev); seq is the channel-wide arrival number that orders
// requests across banks (FR-FCFS's "oldest first").
type reqNode struct {
	req          Request
	seq          uint64
	bnext, bprev *reqNode
}

// bankQ is one bank's FIFO bucket within a kindQ.
type bankQ struct {
	head, tail *reqNode
	n          int // queued requests in this bucket
	// hits counts queued requests targeting the bank's open row. It is
	// maintained on enqueue/dequeue and recomputed when a row opens
	// (zeroed when it closes), making the first-ready pass and the
	// open-row precharge veto O(1) per bank instead of O(queue).
	hits int
}

// kindQ is one channel's read or write queue. The per-bank FIFO buckets
// live inside bankSt so one bank lookup touches both scheduling and queue
// state. active is a sparse set of the banks with queued requests, so the
// scheduler's scans touch only banks with work (its order is immaterial:
// every consumer selects by arrival number).
type kindQ struct {
	count  int
	active []int // flat indices of non-empty buckets, unordered
	pos    []int // flat index -> position in active, -1 if absent
}

func (c *Controller) pushNode(ch *channel, k int, n *reqNode, flat int) {
	q := &ch.q[k]
	bq := &ch.banks[flat].bq[k]
	if bq.tail == nil {
		bq.head = n
		q.pos[flat] = len(q.active)
		q.active = append(q.active, flat)
	} else {
		bq.tail.bnext = n
		n.bprev = bq.tail
	}
	bq.tail = n
	bq.n++
	q.count++
}

func (c *Controller) unlinkNode(ch *channel, k int, n *reqNode, flat int) {
	q := &ch.q[k]
	bq := &ch.banks[flat].bq[k]
	if n.bprev != nil {
		n.bprev.bnext = n.bnext
	} else {
		bq.head = n.bnext
	}
	if n.bnext != nil {
		n.bnext.bprev = n.bprev
	} else {
		bq.tail = n.bprev
	}
	bq.n--
	if bq.head == nil {
		i := q.pos[flat]
		last := q.active[len(q.active)-1]
		q.active[i] = last
		q.pos[last] = i
		q.active = q.active[:len(q.active)-1]
		q.pos[flat] = -1
	}
	q.count--
}

// arrivalWalk walks one queue's requests oldest first by merging its
// per-bank FIFOs on seq. It borrows the channel's pass-2 cursor scratch,
// so it allocates nothing, and must not overlap another walk or a
// scheduleDemand call on the same channel.
type arrivalWalk struct {
	cur []p2cursor
}

// arrivals starts a walk over queue k of ch.
func (c *Controller) arrivals(ch *channel, k int) arrivalWalk {
	cur := ch.cursors[:0]
	for _, flat := range ch.q[k].active {
		cur = append(cur, p2cursor{node: ch.banks[flat].bq[k].head})
	}
	return arrivalWalk{cur: cur}
}

// next returns the oldest request not yet walked, or nil at the end.
func (a *arrivalWalk) next() *reqNode {
	if len(a.cur) == 0 {
		return nil
	}
	mi := 0
	for i := 1; i < len(a.cur); i++ {
		if a.cur[i].node.seq < a.cur[mi].node.seq {
			mi = i
		}
	}
	n := a.cur[mi].node
	if n.bnext != nil {
		a.cur[mi].node = n.bnext
	} else {
		a.cur[mi] = a.cur[len(a.cur)-1]
		a.cur = a.cur[:len(a.cur)-1]
	}
	return n
}

// Controller is the memory request scheduler.
type Controller struct {
	cfg    Config
	now    dram.Time
	chans  []*channel
	engine RefreshEngine
	bpr    int // banks per rank

	free       *reqNode
	arrival    uint64
	rankOf     []int       // flat bank index -> rank (avoids hot division)
	groupOf    []int       // rank-relative bank -> bank group (likewise)
	actScratch []dram.Time // canACT's reusable tFAW timeline
	evt        dram.Time   // earliest guard-flip time recorded this tick

	// OnComplete is invoked when a read's data has returned (writes
	// complete on enqueue). May be nil.
	OnComplete func(core int, token uint64, at dram.Time)
	// CommandHook observes every command placed on a command bus. May be
	// nil.
	CommandHook func(dram.Command)

	// forensics, when non-nil, is the RowHammer activation ledger fed by
	// nil-checked hooks on the command paths (see EnableForensics).
	forensics *Forensics

	Stats Stats
}

type channel struct {
	id          int
	q           [2]kindQ // qRead, qWrite
	banks       []bankSt // flat per channel: rank*banksPerRank + bank
	ranks       []rankSt
	lastCmd     dram.Time
	hasCmd      bool
	dataBusFree dram.Time
	draining    bool
	seq         *sequence
	seqStore    sequence
	pendingPREs int // banks with pendingPRE set

	// Idle-skip state: after a tick that issued no command, idleUntil
	// holds the earliest time any state transition can occur and the
	// deltas hold the blocked-counter increments that tick produced.
	// Until idleUntil — or until a new request arrives, which clears it —
	// ticking this channel only replays the deltas.
	idleUntil      dram.Time
	idleSeqBlocked uint64
	idleCanACT     uint64

	cursors []p2cursor // pass-2 merge scratch, one slot per bank
	parked  []p2cursor // pass-2 banks behind a memoized canACT wall
	// Pass-2 per-invocation canACT memo: a failed activation with
	// need=tRRD_S fails for every bank of the rank (the S constraint,
	// tFAW, and refresh occupancy are rank-wide); a failed one with
	// need=tRRD_L fails for every same-group bank. Valid only while no
	// HiRA sequence is active (sequence blocking is timing-specific).
	p2FailAll, p2FailL []bool
}

// p2cursor walks one bank's FIFO during the pass-2 arrival-order merge.
type p2cursor struct {
	node *reqNode
	flat int
	left int // requests remaining in the bank's FIFO, including node
}

type bankSt struct {
	open     bool
	row      int
	actAt    dram.Time
	readyACT dram.Time
	readyPRE dram.Time
	readyCol dram.Time
	// reserved marks the bank as owned by a refresh operation or HiRA
	// sequence; demand scheduling skips it.
	reserved bool
	// pendingPRE, when set, schedules an automatic precharge at the given
	// time (used to close rows after standalone refreshes).
	pendingPRE   bool
	pendingPREAt dram.Time
	// bq holds the bank's read and write FIFO buckets, co-located with
	// the timing state so the scheduler's scan stays on one cache line
	// pair per bank.
	bq [2]bankQ
}

type rankSt struct {
	lastACT      dram.Time
	lastACTGroup int
	actTimes     []dram.Time
	refBusy      dram.Time
	refDrain     bool // rank is being drained for a REF
	pendingREF   bool
}

// sequence is a short pre-timed command burst (a HiRA operation). One may
// be active per channel at a time; the channel owns a single reusable
// instance so starting a sequence never allocates.
type sequence struct {
	cmds   [3]seqCmd
	n      int
	next   int
	rank   int
	flat   int  // flat channel index of the target bank
	access bool // second ACT serves a demand access
	// plannedSecond is the scheduled HiRASecondACT time; the closing
	// precharge of a refresh-refresh pair is timed from it.
	plannedSecond dram.Time
}

type seqCmd struct {
	kind  dram.Kind
	phase dram.HiRAPhase
	rank  int
	bank  int // rank-relative
	row   int
	due   dram.Time
}

// NewController builds a controller with the given refresh engine
// (NoRefresh{} if nil).
func NewController(cfg Config, engine RefreshEngine) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Org.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if engine == nil {
		engine = NoRefresh{}
	}
	c := &Controller{
		cfg:    cfg,
		engine: engine,
		bpr:    cfg.Org.BanksPerRank(),
	}
	c.rankOf = make([]int, cfg.Org.BanksPerChannel())
	for i := range c.rankOf {
		c.rankOf[i] = i / c.bpr
	}
	c.groupOf = make([]int, c.bpr)
	for i := range c.groupOf {
		c.groupOf[i] = i / cfg.Org.BanksPerGroup
	}
	for ch := 0; ch < cfg.Org.Channels; ch++ {
		nb := cfg.Org.BanksPerChannel()
		cc := &channel{id: ch}
		cc.banks = make([]bankSt, nb)
		cc.ranks = make([]rankSt, cfg.Org.RanksPerChannel)
		for i := range cc.ranks {
			cc.ranks[i] = rankSt{lastACT: -dram.MaxTime()}
		}
		for k := range cc.q {
			cc.q[k].active = make([]int, 0, nb)
			cc.q[k].pos = make([]int, nb)
			for i := range cc.q[k].pos {
				cc.q[k].pos[i] = -1
			}
		}
		cc.cursors = make([]p2cursor, 0, nb)
		cc.parked = make([]p2cursor, 0, nb)
		cc.p2FailAll = make([]bool, cfg.Org.RanksPerChannel)
		cc.p2FailL = make([]bool, cfg.Org.RanksPerChannel)
		c.chans = append(c.chans, cc)
	}
	return c, nil
}

// Now returns the controller clock.
func (c *Controller) Now() dram.Time { return c.now }

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// QueueOccupancy returns current read/write queue depths summed over
// channels.
func (c *Controller) QueueOccupancy() (reads, writes int) {
	for _, ch := range c.chans {
		reads += ch.q[qRead].count
		writes += ch.q[qWrite].count
	}
	return
}

func (c *Controller) newNode(req Request) *reqNode {
	n := c.free
	if n == nil {
		n = &reqNode{}
	} else {
		c.free = n.bnext
		*n = reqNode{}
	}
	n.req = req
	n.seq = c.arrival
	c.arrival++
	return n
}

func (c *Controller) freeNode(n *reqNode) {
	*n = reqNode{bnext: c.free}
	c.free = n
}

// flat returns the channel-flat index of a bank.
func (c *Controller) flat(rank, bank int) int { return rank*c.bpr + bank }

// Enqueue accepts a request, returning false if the relevant queue is
// full. Writes are acknowledged immediately (write-buffer semantics).
func (c *Controller) Enqueue(req Request) bool {
	ch := c.chans[req.Loc.Channel]
	req.Arrive = c.now
	k, capN := qRead, c.cfg.ReadQueueCap
	if req.Write {
		k, capN = qWrite, c.cfg.WriteQueueCap
	}
	q := &ch.q[k]
	if q.count >= capN {
		return false
	}
	if req.Write {
		c.Stats.Writes++
	}
	flat := c.flat(req.Loc.Rank, req.Loc.Bank)
	n := c.newNode(req)
	c.pushNode(ch, k, n, flat)
	bank := &ch.banks[flat]
	if bank.open && bank.row == req.Loc.Row {
		bank.bq[k].hits++
	}
	c.noteEnqueue(ch, k, flat, req.Loc.Row)
	return true
}

// noteEnqueue decides whether a newly queued request must wake an idle
// channel. Most arrivals park behind a busy bank or in the queue not
// being served and cannot issue, count toward a blocked-counter, or be
// touched by the scheduler at all until a time the sleep already tracks —
// those keep the skip window open (possibly shortened to the bank's ready
// time). Anything that could act now, or that moves the write-drain
// hysteresis, forces a full rescan.
func (c *Controller) noteEnqueue(ch *channel, k, flat, row int) {
	if ch.idleUntil <= c.now {
		return // a full tick is due anyway
	}
	readN, writeN := ch.q[qRead].count, ch.q[qWrite].count
	// Arrivals that can flip the hysteresis or the served-queue choice.
	if k == qWrite {
		if writeN >= c.cfg.WriteHigh || readN == 0 {
			ch.idleUntil = 0
			return
		}
	} else if readN == 1 {
		ch.idleUntil = 0 // the read queue was empty: selection changes
		return
	}
	if (k == qWrite) != ch.draining {
		return // parked in the queue not being served
	}
	bank := &ch.banks[flat]
	if bank.reserved {
		return // release is sequence/pending-PRE driven, already tracked
	}
	wake := func(ready dram.Time, busy dram.Time) bool {
		if c.now >= ready && c.now >= busy {
			return true
		}
		if ready > c.now && ready < ch.idleUntil {
			ch.idleUntil = ready
		}
		if busy > c.now && busy < ch.idleUntil {
			ch.idleUntil = busy
		}
		return false
	}
	rk := &ch.ranks[c.rankOf[flat]]
	if !bank.open {
		// The request joins pass 2: an ACT attempt happens (and is
		// counted) as soon as the bank is ready.
		if c.now >= bank.readyACT {
			ch.idleUntil = 0
		} else if bank.readyACT < ch.idleUntil {
			ch.idleUntil = bank.readyACT
		}
		return
	}
	if bank.row == row {
		// Row hit: issuable once the column path, rank, and data bus
		// allow; a bus-blocked attempt has no effect, so sleep to the
		// bus-ready point.
		if wake(bank.readyCol, rk.refBusy) {
			lat := c.cfg.Timing.CL
			if k == qWrite {
				lat = c.cfg.Timing.CWL
			}
			if ch.dataBusFree <= c.now+lat {
				ch.idleUntil = 0
			} else if t := ch.dataBusFree - lat; t < ch.idleUntil {
				ch.idleUntil = t
			}
		}
		return
	}
	// Row conflict: a precharge becomes possible only while no queued
	// request hits the open row.
	if bank.bq[k].hits == 0 {
		if wake(bank.readyPRE, rk.refBusy) {
			ch.idleUntil = 0
		}
	}
}

// removeNode dequeues a request after it has been serviced.
func (c *Controller) removeNode(ch *channel, k int, n *reqNode) {
	flat := c.flat(n.req.Loc.Rank, n.req.Loc.Bank)
	bank := &ch.banks[flat]
	if bank.open && bank.row == n.req.Loc.Row {
		bank.bq[k].hits--
	}
	c.unlinkNode(ch, k, n, flat)
	c.freeNode(n)
}

// openRow records that flat's row opened and recounts per-queue row hits.
func (c *Controller) openRow(ch *channel, flat, row int) {
	bank := &ch.banks[flat]
	bank.open = true
	bank.row = row
	for k := range bank.bq {
		h := 0
		for n := bank.bq[k].head; n != nil; n = n.bnext {
			if n.req.Loc.Row == row {
				h++
			}
		}
		bank.bq[k].hits = h
	}
}

// closeRow records that flat's row closed.
func (c *Controller) closeRow(ch *channel, flat int) {
	bank := &ch.banks[flat]
	bank.open = false
	bank.bq[qRead].hits = 0
	bank.bq[qWrite].hits = 0
}

func (c *Controller) emit(ch *channel, cmd dram.Command) {
	cmd.At = c.now
	cmd.Loc.Channel = ch.id
	ch.lastCmd = c.now
	ch.hasCmd = true
	if f := c.forensics; f != nil && f.pre != nil {
		f.record(cmd)
	}
	if c.CommandHook != nil {
		c.CommandHook(cmd)
	}
}

// busFree reports whether the channel command bus can carry a command now.
func (c *Controller) busFree(ch *channel) bool {
	return !ch.hasCmd || c.now-ch.lastCmd >= c.cfg.Timing.TCK
}

// Tick advances the controller by one command clock.
//
// The hot path is event-driven: as a tick's scheduling scans fail their
// time guards they record the threshold times (noteEvt); if the tick
// issues no command, the earliest recorded threshold — or the engine's
// next mandatory refresh, or a new request arriving — is the next time
// anything can change, so until then subsequent ticks only replay that
// tick's blocked-counter deltas.
func (c *Controller) Tick() {
	c.engine.Tick(c.now)
	engineNext := dram.Time(-1) // lazily computed, at most once per tick
	for _, ch := range c.chans {
		if c.now < ch.idleUntil {
			c.Stats.SeqBlocked += ch.idleSeqBlocked
			c.Stats.CanACTBlocked += ch.idleCanACT
			continue
		}
		seq0, can0 := c.Stats.SeqBlocked, c.Stats.CanACTBlocked
		c.evt = dram.MaxTime()
		if !c.service(ch) {
			c.scheduleDemand(ch)
		}
		if ch.hasCmd && ch.lastCmd == c.now {
			ch.idleUntil = 0 // issued a command: state changed, rescan next tick
			continue
		}
		if ch.seq != nil {
			// An active HiRA sequence lasts a handful of ticks but makes
			// demand attempts time-sensitive in ways the recorded
			// thresholds don't capture (the tRRD race against its
			// pre-timed ACTs flips between blocking reasons as the gap
			// shrinks): run every tick until it completes.
			ch.idleUntil = 0
			continue
		}
		if c.drainWillFlip(ch) {
			// The write-drain hysteresis flips state on the next
			// evaluation even with frozen queues (at the low watermark
			// with an empty read queue it oscillates every tick), so its
			// phase must advance tick by tick, exactly as an
			// unskipped per-tick evaluation does.
			ch.idleUntil = 0
			continue
		}
		if engineNext < 0 {
			engineNext = c.engine.NextEvent(c.now)
		}
		until := c.evt
		if engineNext > c.now && engineNext < until {
			until = engineNext
		}
		ch.idleUntil = until
		ch.idleSeqBlocked = c.Stats.SeqBlocked - seq0
		ch.idleCanACT = c.Stats.CanACTBlocked - can0
	}
	c.now += c.cfg.Timing.TCK
}

// noteEvt records a future time at which a failed scheduling guard could
// flip, bounding how far the current channel's tick may be skipped.
func (c *Controller) noteEvt(t dram.Time) {
	if t > c.now && t < c.evt {
		c.evt = t
	}
}

// IdleUntil reports the earliest time any channel needs a full tick, or 0
// if some channel must run the full scheduler on the next tick. Callers
// that also know their request sources are quiescent may advance the
// controller to that point with SkipTicks.
func (c *Controller) IdleUntil() dram.Time {
	min := dram.MaxTime()
	for _, ch := range c.chans {
		if ch.idleUntil <= c.now {
			return 0
		}
		if ch.idleUntil < min {
			min = ch.idleUntil
		}
	}
	return min
}

// SkipTicks advances the clock n ticks through a window IdleUntil proved
// idle, replaying each channel's per-tick blocked counters. Queues, bank
// state, and the refresh engine are untouched; the engine's generation
// catch-up happens on the next full tick and is deadline-driven, so the
// resulting refresh schedule is identical to ticking through the window.
func (c *Controller) SkipTicks(n int) {
	for _, ch := range c.chans {
		c.Stats.SeqBlocked += uint64(n) * ch.idleSeqBlocked
		c.Stats.CanACTBlocked += uint64(n) * ch.idleCanACT
	}
	c.now += dram.Time(n) * c.cfg.Timing.TCK
}

// service runs one channel's tick up to demand scheduling: it reports
// whether the tick is spent, either because the command bus is busy or
// because it issued a command ahead of demand (a HiRA sequence step, a
// scheduled precharge, REF work, or an engine-mandated refresh). A tick
// that is not spent goes to FR-FCFS demand scheduling.
func (c *Controller) service(ch *channel) bool {
	if !c.busFree(ch) {
		c.noteEvt(ch.lastCmd + c.cfg.Timing.TCK)
		return true
	}
	// 1. Active HiRA sequence commands are pre-timed: issue when due.
	if ch.seq != nil {
		if c.issueSeq(ch) {
			return true
		}
	}
	// 2. Scheduled automatic precharges (closing standalone refreshes).
	if c.issuePendingPRE(ch) {
		return true
	}
	// 3. Rank REF draining and issue.
	if c.issueREFWork(ch) {
		return true
	}
	// 4. Engine-mandated refresh operations: several banks may have due
	// refreshes; start the first one that resources allow.
	if ch.seq == nil {
		for _, op := range c.engine.Mandatory(ch.id, c.now) {
			if op.Kind != OpNone && c.startOp(ch, op) {
				return true
			}
		}
	}
	return false
}

func (c *Controller) issueSeq(ch *channel) bool {
	s := ch.seq
	cmd := &s.cmds[s.next]
	if c.now < cmd.due {
		c.noteEvt(cmd.due)
		return false
	}
	bank := &ch.banks[s.flat]
	c.emit(ch, dram.Command{
		Kind:  cmd.kind,
		Loc:   dram.Location{BankID: dram.BankID{Rank: cmd.rank, Bank: cmd.bank}, Row: cmd.row},
		Phase: cmd.phase,
	})
	switch cmd.kind {
	case dram.KindACT:
		c.Stats.ACTs++
		c.noteACT(ch, cmd.rank, cmd.bank)
		c.openRow(ch, s.flat, cmd.row)
		bank.actAt = c.now
		bank.readyCol = c.now + c.cfg.Timing.TRCD
		bank.readyPRE = c.now + c.cfg.Timing.TRAS
		bank.readyACT = c.now + c.cfg.Timing.TRC
		if cmd.phase == dram.HiRASecondACT {
			if s.access {
				// The demand row becomes schedulable once the second
				// ACT issues.
				bank.reserved = false
			} else {
				// Refresh-refresh pair: one closing precharge tRAS
				// after the scheduled second ACT covers both rows.
				bank.pendingPRE = true
				bank.pendingPREAt = s.plannedSecond + c.cfg.Timing.TRAS
				ch.pendingPREs++
			}
		}
		if c.forensics != nil {
			if cmd.phase == dram.HiRASecondACT && s.access {
				c.forensics.demandACT(ch.id, s.flat, cmd.row)
			} else {
				c.forensics.refreshACT(ch.id, s.flat, cmd.row)
			}
		}
		c.engine.NoteActivate(dram.Location{
			BankID: dram.BankID{Channel: ch.id, Rank: cmd.rank, Bank: cmd.bank},
			Row:    cmd.row,
		}, cmd.phase == dram.HiRASecondACT && s.access, c.now)
	case dram.KindPRE:
		c.Stats.PREs++
		c.closeRow(ch, s.flat)
		if cmd.phase != dram.HiRAInterruptPRE {
			bank.readyACT = maxTime(bank.readyACT, c.now+c.cfg.Timing.TRP)
		}
		// HiRAInterruptPRE: the bank is reopened by the second ACT.
	}
	s.next++
	if s.next == s.n {
		ch.seq = nil
	}
	return true
}

func (c *Controller) issuePendingPRE(ch *channel) bool {
	if ch.pendingPREs == 0 {
		return false
	}
	for rb := range ch.banks {
		bank := &ch.banks[rb]
		if !bank.pendingPRE {
			continue
		}
		if c.now < bank.pendingPREAt || c.now < bank.readyPRE {
			c.noteEvt(bank.pendingPREAt)
			c.noteEvt(bank.readyPRE)
			continue
		}
		rank := rb / c.bpr
		b := rb % c.bpr
		c.emit(ch, dram.Command{Kind: dram.KindPRE,
			Loc: dram.Location{BankID: dram.BankID{Rank: rank, Bank: b}}})
		c.Stats.PREs++
		c.closeRow(ch, rb)
		bank.pendingPRE = false
		ch.pendingPREs--
		bank.reserved = false
		bank.readyACT = maxTime(bank.readyACT, c.now+c.cfg.Timing.TRP)
		return true
	}
	return false
}

func (c *Controller) noteACT(ch *channel, rank, bank int) {
	rk := &ch.ranks[rank]
	rk.lastACT = c.now
	rk.lastACTGroup = c.groupOf[bank]
	cut := c.now - c.cfg.Timing.TFAW
	times := rk.actTimes[:0]
	for _, t := range rk.actTimes {
		if t > cut {
			times = append(times, t)
		}
	}
	rk.actTimes = append(times, c.now)
}

// canACT checks rank-level ACT constraints (tRRD_S/tRRD_L, tFAW headroom
// for n more ACTs within the next span) and refresh occupancy.
func (c *Controller) canACT(ch *channel, rank, bank int, n int, span dram.Time) bool {
	rk := &ch.ranks[rank]
	if c.now < rk.refBusy || rk.refDrain {
		c.noteEvt(rk.refBusy) // refDrain clears at the REF, a command tick
		return false
	}
	need := c.cfg.Timing.TRRD
	if c.groupOf[bank] == rk.lastACTGroup {
		need = c.cfg.Timing.TRRDL
	}
	if c.now-rk.lastACT < need {
		c.noteEvt(rk.lastACT + need)
		return false
	}
	// tFAW: every activation — past, planned now, or pre-timed in an
	// active HiRA sequence — must see at most 3 other ACTs in the tFAW
	// window ending at its own issue time. Build the combined timeline
	// (a handful of entries) and check every window that the planned
	// ACTs join.
	times := c.actScratch[:0]
	times = append(times, rk.actTimes...)
	if s := ch.seq; s != nil && s.rank == rank {
		for _, sc := range s.cmds[s.next:s.n] {
			if sc.kind == dram.KindACT {
				times = append(times, sc.due)
			}
		}
	}
	times = append(times, c.now)
	if n > 1 {
		times = append(times, c.now+span)
	}
	c.actScratch = times[:0]
	for _, end := range times {
		if end < c.now-c.cfg.Timing.TFAW {
			continue
		}
		count := 0
		for _, t := range times {
			if t > end-c.cfg.Timing.TFAW && t <= end {
				count++
			}
		}
		if count > 4 {
			// The violating window relaxes when an existing ACT ages out
			// of it: the window ending at the planned ACT (now) loses
			// activation `at` once now > at+tFAW, and the window ending
			// at the planned second ACT (now+span) loses it span
			// earlier.
			for _, at := range rk.actTimes {
				c.noteEvt(at + c.cfg.Timing.TFAW)
				if n > 1 {
					c.noteEvt(at + c.cfg.Timing.TFAW - span)
				}
			}
			return false
		}
	}
	return true
}

func maxTime(a, b dram.Time) dram.Time {
	if a > b {
		return a
	}
	return b
}
