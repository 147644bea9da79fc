// Package sim wires the full simulated system of §7 — multicore front end
// (internal/cpu), shared LLC (internal/cache), memory request scheduler
// (internal/sched) with a refresh engine (internal/core), and synthetic
// SPEC CPU2006 workloads (internal/workload) — and implements the
// parameter sweeps behind every performance figure of the paper
// (Figs. 9 and 12-16).
package sim

import (
	"context"
	"fmt"
	"math"

	"hira/internal/cache"
	"hira/internal/core"
	"hira/internal/cpu"
	"hira/internal/dram"
	"hira/internal/rowhammer"
	"hira/internal/sched"
	"hira/internal/snap"
	"hira/internal/workload"
)

// CPU clock ratio: 3.2 GHz cores against the DDR4-2400 command clock
// (1.2 GHz, tCK = 0.833 ns): cycles per memory tick.
const cpuCyclesPerTick = 3.2e9 * 0.833e-9

// maxSlotsPerTick bounds the per-tick instruction budget a core can
// receive: the integer part of the per-tick accrual plus the carried
// fraction.
var maxSlotsPerTick = int(math.Floor(4*cpuCyclesPerTick)) + 1

// LLCHitLatencyCycles approximates the shared-cache hit latency in CPU
// cycles (charged as a retirement delay through the completion path).
const llcHitLatencyCycles = 40

// defaultSPTCoverage is §7's pairable-subarray fraction, applied when
// Config.SPTCoverage is zero. appendSimShape canonicalizes with the same
// constant so a cell's content key can never disagree with what
// NewSystem simulates.
const defaultSPTCoverage = 0.32

// Mitigation names for RefreshPolicy.Mitigation: the preventive
// mitigation zoo (internal/core). Empty means the HiRA-MC engine
// (baseline REF / HiRA / PARA per the mode fields).
const (
	MitigationGraphene = "graphene"
	MitigationRFM      = "rfm"
)

// RefreshPolicy names a refresh configuration under test.
type RefreshPolicy struct {
	// Name labels the configuration in reports ("Baseline", "HiRA-2"...).
	Name string `json:"name"`

	Periodic   core.PeriodicMode   `json:"periodic"`
	Preventive core.PreventiveMode `json:"preventive"`

	// SlackTRC is tRefSlack in units of tRC (the N of HiRA-N).
	SlackTRC int `json:"slack_trc"`

	// NRH is the RowHammer threshold PARA must defend; 0 disables PARA.
	NRH int `json:"nrh"`

	// Mitigation, when non-empty, replaces the HiRA-MC engine with a zoo
	// engine ("graphene" or "rfm"); the mode fields above are then unused.
	Mitigation string `json:"mitigation,omitempty"`
	// MitigationParam is the mitigation's size knob: the per-bank counter
	// count for Graphene, RAAIMT for RFM. 0 takes a default derived from
	// NRH (see buildEngine).
	MitigationParam int `json:"mitigation_param,omitempty"`
}

// NoRefreshPolicy is Fig. 9a's ideal upper bound.
func NoRefreshPolicy() RefreshPolicy {
	return RefreshPolicy{Name: "NoRefresh", Periodic: core.PeriodicNone}
}

// BaselinePolicy is the conventional rank-level REF configuration.
func BaselinePolicy() RefreshPolicy {
	return RefreshPolicy{Name: "Baseline", Periodic: core.PeriodicREF}
}

// HiRAPeriodicPolicy is HiRA-N for periodic refreshes (§8).
func HiRAPeriodicPolicy(n int) RefreshPolicy {
	return RefreshPolicy{
		Name:     fmt.Sprintf("HiRA-%d", n),
		Periodic: core.PeriodicHiRA,
		SlackTRC: n,
	}
}

// PARAPolicy is PARA without HiRA (§9.2's "PARA"): periodic REF plus
// immediate preventive refreshes.
func PARAPolicy(nrh int) RefreshPolicy {
	return RefreshPolicy{
		Name:       "PARA",
		Periodic:   core.PeriodicREF,
		Preventive: core.PreventiveImmediate,
		NRH:        nrh,
	}
}

// PARAHiRAPolicy is PARA with HiRA-N parallelization of preventive
// refreshes.
func PARAHiRAPolicy(nrh, n int) RefreshPolicy {
	return RefreshPolicy{
		Name:       fmt.Sprintf("HiRA-%d", n),
		Periodic:   core.PeriodicREF,
		Preventive: core.PreventiveHiRA,
		SlackTRC:   n,
		NRH:        nrh,
	}
}

// GraphenePolicy is the Graphene-style counter-table mitigation: per-bank
// Misra-Gries top-k activation counters tripping at NRH/4, victims
// refreshed by blocking row refreshes. counters 0 takes the default (16).
func GraphenePolicy(nrh, counters int) RefreshPolicy {
	return RefreshPolicy{
		Name:            "Graphene",
		NRH:             nrh,
		Mitigation:      MitigationGraphene,
		MitigationParam: counters,
	}
}

// RFMPolicy is the DDR5 RFM-style mitigation: per-bank activation
// budgets (RAA counters) with a single-entry majority-vote tracker.
// raaimt 0 takes the default (NRH/8, at least 2).
func RFMPolicy(nrh, raaimt int) RefreshPolicy {
	return RefreshPolicy{
		Name:            "RFM",
		NRH:             nrh,
		Mitigation:      MitigationRFM,
		MitigationParam: raaimt,
	}
}

// Config describes one simulated system.
type Config struct {
	Cores            int // Table 3: 8
	ChipCapacityGbit int // Table 3: sweeps 2-128
	Channels         int // Table 3: 1 (swept in §10)
	Ranks            int // Table 3: 1 (swept in §10)
	Policy           RefreshPolicy
	// SPTCoverage is the pairable-subarray fraction (§7: 0.32).
	SPTCoverage float64
	Seed        uint64
	// Forensics opts into the RowHammer forensics ledger (observational
	// only; the simulated trajectory is bit-identical either way).
	Forensics ForensicsOptions
}

// DefaultConfig returns Table 3's system.
func DefaultConfig() Config {
	return Config{
		Cores:            8,
		ChipCapacityGbit: 8,
		Channels:         1,
		Ranks:            1,
		Policy:           BaselinePolicy(),
		SPTCoverage:      0.32,
		Seed:             1,
	}
}

// wbRing buffers writebacks that found the write queue full, FIFO. It is
// a growable ring, so steady-state push/pop never allocates (the seed's
// wbQueue[1:] re-slice leaked its backing array's head and reallocated on
// every refill cycle).
type wbRing struct {
	buf  []sched.Request
	head int
	n    int
}

func (r *wbRing) push(req sched.Request) {
	if r.n == len(r.buf) {
		grown := make([]sched.Request, 2*r.n+8)
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = req
	r.n++
}

func (r *wbRing) front() *sched.Request { return &r.buf[r.head] }

func (r *wbRing) pop() {
	r.buf[r.head] = sched.Request{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}

func (r *wbRing) len() int { return r.n }

// System is a fully wired simulated machine.
type System struct {
	cfg    Config
	mix    workload.SourceMix
	org    dram.Org
	timing dram.Timing
	ctrl   *sched.Controller
	engine refreshEngine
	llc    *cache.Cache
	mapper *dram.MOPMapper
	cores  []*cpu.Core

	// instrBudget carries the fractional per-tick instruction budget.
	// Every core accrues identically (4 issue slots per CPU cycle), so a
	// single accumulator serves them all.
	instrBudget float64
	// blocked caches cores whose instruction window is full: their tick
	// reduces to stall accounting until a completion clears the flag.
	blocked  []bool
	ticksRun int
	wb       wbRing

	// idleMemo caches each core's last IdleTicks answer behind a dirty
	// flag, so the idle-window probe after a busy tick rescans only cores
	// whose issue state actually moved (a blocked core's stall accrual
	// does not). Cleared on issue, skip, and completion.
	idleMemo  []int
	idleDirty []bool

	// trajKeyMemo caches the trajectory key of (cfg, mix): both are
	// fixed at construction, and dense differential checkpoints would
	// otherwise re-render the key (several allocations) on every encode.
	trajKeyMemo string

	// scratch is the writer checkpoints encode into, reused across
	// checkpoints (see encodeExact).
	scratch snap.Writer
}

// trajKey returns the system's trajectory key, rendering it on first use.
func (s *System) trajKey() string {
	if s.trajKeyMemo == "" {
		s.trajKeyMemo = trajectoryKey(s.cfg, identify(s.mix).wl)
	}
	return s.trajKeyMemo
}

// coreMemory adapts the system as each core's cpu.Memory.
type coreMemory struct {
	s    *System
	core int
}

// scaledRows scales a row count by (capacity/8Gb)^0.6, Expression 1's
// refresh-work exponent, rounding to the nearest integer. 512 rows scale
// to at least 147 for any capacity Org.Validate accepts (1 Gb or more).
func scaledRows(base, capacityGbit int) int {
	return int(float64(base)*math.Pow(float64(capacityGbit)/8, 0.6) + 0.5)
}

// OrgFor returns the DRAM organization a Config simulates, exactly as
// NewSystem builds it. Mapping-aware workload sources (the attacker
// sources) must be constructed against this organization to land their
// accesses on the intended rows.
func OrgFor(cfg Config) dram.Org {
	// The capacity sweep scales refresh work the way the paper's
	// Expression 1 scales it for the baseline: tRFC = 110·C^0.6, i.e.
	// the per-REF refresh work grows as C^0.6 (denser chips refresh more
	// subarrays in parallel internally). The equivalent row-granularity
	// work for HiRA-MC therefore also grows as C^0.6: rows per bank =
	// 64K x (C/8)^0.6 around Table 3's 8 Gb anchor. (Scaling rows
	// linearly with C would make any row-granularity refresh infeasible
	// under Table 3's own tFAW at 128 Gb, baseline REF included.)
	org := dram.DefaultOrg()
	org.ChipCapacityGbit = cfg.ChipCapacityGbit
	org.RowsPerSubarray = scaledRows(512, cfg.ChipCapacityGbit)
	org.Channels = cfg.Channels
	org.RanksPerChannel = cfg.Ranks
	return org
}

// refreshEngine is a refresh engine the system can checkpoint: every
// engine buildEngine returns (HiRA-MC and the mitigation zoo) serializes
// its complete state, so every sim cell resumes from checkpoints.
type refreshEngine interface {
	sched.RefreshEngine
	Snapshot(w *snap.Writer)
	Restore(r *snap.Reader, now dram.Time) error
}

// buildEngine constructs the refresh engine a policy names: a zoo
// mitigation when Policy.Mitigation is set, the HiRA-MC engine otherwise.
func buildEngine(cfg Config, org dram.Org, timing dram.Timing) (refreshEngine, error) {
	switch cfg.Policy.Mitigation {
	case MitigationGraphene:
		counters := cfg.Policy.MitigationParam
		if counters == 0 {
			counters = 16
		}
		return core.NewGraphene(core.GrapheneConfig{
			Org: org, Timing: timing, NRH: cfg.Policy.NRH, Counters: counters,
		})
	case MitigationRFM:
		raaimt := cfg.Policy.MitigationParam
		if raaimt == 0 {
			raaimt = cfg.Policy.NRH / 8
			if raaimt < 2 {
				raaimt = 2
			}
		}
		return core.NewRFM(core.RFMConfig{Org: org, Timing: timing, RAAIMT: raaimt})
	case "":
	default:
		return nil, fmt.Errorf("sim: unknown mitigation %q", cfg.Policy.Mitigation)
	}
	ecfg := core.Config{
		Org:        org,
		Timing:     timing,
		Periodic:   cfg.Policy.Periodic,
		Preventive: cfg.Policy.Preventive,
		RefSlack:   dram.Time(cfg.Policy.SlackTRC) * timing.TRC,
		Seed:       cfg.Seed*2654435761 + 97,
	}
	if cfg.Policy.Periodic == core.PeriodicHiRA || cfg.Policy.Preventive == core.PreventiveHiRA {
		cov := cfg.SPTCoverage
		if cov == 0 {
			cov = defaultSPTCoverage
		}
		ecfg.SPT = core.NewSyntheticSPT(org.SubarraysPerBank, cov, 0xD1CE+cfg.Seed)
	}
	if cfg.Policy.NRH > 0 {
		pth, err := rowhammer.DefaultConfig().SolvePth(cfg.Policy.NRH,
			float64(cfg.Policy.SlackTRC), rowhammer.ReliabilityTarget)
		if err != nil {
			return nil, err
		}
		ecfg.Pth = pth
	}
	return core.New(ecfg)
}

// NewSystem builds the system for a mix of per-core workload sources
// (builtin or custom profiles, recorded traces — anything implementing
// workload.Source).
func NewSystem(cfg Config, mix workload.SourceMix) (*System, error) {
	if len(mix.Sources) != cfg.Cores {
		return nil, fmt.Errorf("sim: mix has %d workloads for %d cores", len(mix.Sources), cfg.Cores)
	}
	org := OrgFor(cfg)
	timing := dram.DDR4_2400(cfg.ChipCapacityGbit)

	engine, err := buildEngine(cfg, org, timing)
	if err != nil {
		return nil, err
	}
	ctrl, err := sched.NewController(sched.Config{Org: org, Timing: timing}, engine)
	if err != nil {
		return nil, err
	}
	if cfg.Forensics.Enabled {
		thresholds, hot := forensicsThresholds(cfg.Policy.NRH)
		ctrl.EnableForensics(sched.ForensicsConfig{
			Thresholds:   thresholds,
			HotThreshold: hot,
			Recorder:     cfg.Forensics.Recorder,
		})
	}

	s := &System{
		cfg:       cfg,
		mix:       mix,
		org:       org,
		timing:    timing,
		ctrl:      ctrl,
		engine:    engine,
		llc:       cache.NewLLC(),
		mapper:    dram.NewMOPMapper(org),
		blocked:   make([]bool, cfg.Cores),
		idleMemo:  make([]int, cfg.Cores),
		idleDirty: make([]bool, cfg.Cores),
	}
	for i := range s.idleDirty {
		s.idleDirty[i] = true
	}
	for i := 0; i < cfg.Cores; i++ {
		gen := mix.Sources[i].Stream(aloneSeed(cfg.Seed, i))
		c := cpu.New(i, gen, &coreMemory{s: s, core: i})
		s.cores = append(s.cores, c)
	}
	ctrl.OnComplete = func(coreID int, token uint64, at dram.Time) {
		s.complete(coreID, token)
	}
	return s, nil
}

// complete delivers a load completion and lets the core's next tick
// re-evaluate its window state.
func (s *System) complete(core int, token uint64) {
	s.cores[core].Complete(token)
	s.blocked[core] = false
	s.idleDirty[core] = true
}

// Issue implements cpu.Memory for one core.
func (m *coreMemory) Issue(req cpu.MemRequest) bool {
	s := m.s
	res := s.llc.Access(req.Addr, req.Write)
	if res.Hit {
		if !req.Write {
			// LLC hit: data arrives after the hit latency; the model
			// completes it immediately and charges the latency as
			// already-overlapped (dominant effects are DRAM-side).
			s.complete(m.core, req.Token)
		}
		return true
	}
	if res.WB {
		wb := sched.Request{Loc: s.mapper.Map(res.Writeback), Write: true, Core: m.core}
		if !s.ctrl.Enqueue(wb) {
			s.wb.push(wb)
		}
	}
	loc := s.mapper.Map(req.Addr)
	return s.ctrl.Enqueue(sched.Request{Loc: loc, Write: req.Write, Core: m.core, Token: req.Token})
}

// Tick advances the whole system one memory command clock.
func (s *System) Tick() {
	// Retry buffered writebacks.
	for s.wb.len() > 0 {
		if !s.ctrl.Enqueue(*s.wb.front()) {
			break
		}
		s.wb.pop()
	}
	s.instrBudget += 4 * cpuCyclesPerTick
	whole := int(s.instrBudget)
	if whole > 0 {
		s.instrBudget -= float64(whole)
		budget := float64(whole)
		for i, c := range s.cores {
			if s.blocked[i] {
				// A full window only stalls until a completion clears
				// the flag; this is exactly what Tick would do — and it
				// leaves the core's idle horizon untouched, so the memo
				// stays valid.
				c.StallCycles += budget
				continue
			}
			c.Tick(budget)
			s.blocked[i] = c.Blocked()
			s.idleDirty[i] = true
		}
	}
	s.ctrl.Tick()
	s.ticksRun++
}

// idleTicks returns how many upcoming ticks are provably inert, capped at
// max: the controller has no event before its cached horizon, and every
// core is window-blocked or deep enough in a non-memory gap that it
// cannot issue a request within the window. Buffered writebacks imply a
// full write queue, which cannot drain while no command issues, so they
// do not shorten the window.
func (s *System) idleTicks(max int) int {
	until := s.ctrl.IdleUntil()
	now := s.ctrl.Now()
	if until <= now {
		return 0
	}
	k := max
	if until < dram.MaxTime() {
		tck := s.timing.TCK
		if w := int((until - now + tck - 1) / tck); w < k {
			k = w
		}
	}
	for i, c := range s.cores {
		h := s.idleMemo[i]
		if s.idleDirty[i] {
			h = c.IdleTicks(maxSlotsPerTick)
			s.idleMemo[i] = h
			s.idleDirty[i] = false
		}
		if h < k {
			k = h
		}
		if k <= 0 {
			return 0
		}
	}
	return k
}

// fastForward replays k inert ticks: per-core instruction budgets accrue
// exactly as Tick would accrue them, and each core consumes the window's
// summed budget in one Skip (stall accounting included); the
// controller's clock and per-tick counters advance without running the
// scheduler. The result is bit-identical to calling Tick k times: over
// a window idleTicks proved inert, no core reaches the end of its gap
// or fills its window, so one Skip of the sum equals k per-tick Skips.
func (s *System) fastForward(k int) {
	b := s.instrBudget
	total := 0
	for j := 0; j < k; j++ {
		b += 4 * cpuCyclesPerTick
		if whole := int(b); whole > 0 {
			b -= float64(whole)
			total += whole
		}
	}
	s.instrBudget = b
	if total > 0 {
		for _, c := range s.cores {
			c.Skip(total)
		}
	}
	for i := range s.idleDirty {
		// A blocked core's Skip only accrues stall cycles; its idle
		// horizon (unbounded until a completion) is unchanged.
		if !s.blocked[i] {
			s.idleDirty[i] = true
		}
	}
	s.ctrl.SkipTicks(k)
	s.ticksRun += k
}

// ctxCheckTicks is how many simulated ticks may elapse between context
// polls in the run loops (a power of two so the alone loop can mask).
// At DDR4-2400 tick rates this bounds cancellation latency to a few
// microseconds of simulated time — milliseconds of wall clock at worst —
// while keeping the poll off the per-tick hot path.
const ctxCheckTicks = 4096

// runTicks advances n ticks, fast-forwarding through idle windows and
// polling ctx every ctxCheckTicks ticks so a cancelled run stops
// promptly instead of simulating to completion.
func (s *System) runTicks(ctx context.Context, n int) error {
	check := 0
	for done := 0; done < n; {
		if check <= 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			check = ctxCheckTicks
		}
		s.Tick()
		done++
		check--
		if done >= n {
			return nil
		}
		if k := s.idleTicks(n - done); k > 0 {
			s.fastForward(k)
			done += k
			check -= k
		}
	}
	return nil
}

// Ticks reports how many command-clock ticks the system has simulated
// since construction (or since the tick its restoring snapshot was taken
// at).
func (s *System) Ticks() int { return s.ticksRun }

// RunTo advances the system to the absolute tick target (Ticks() ==
// target afterwards), fast-forwarding idle windows and honoring ctx. It
// is the primitive beneath Run and the checkpointing cell runner: a
// system restored from a snapshot at tick T continues with RunTo exactly
// where the snapshotted run left off.
func (s *System) RunTo(ctx context.Context, target int) error {
	if target < s.ticksRun {
		return fmt.Errorf("sim: cannot run to tick %d, already at %d", target, s.ticksRun)
	}
	return s.runTicks(ctx, target-s.ticksRun)
}

// runMark captures the cumulative counters at a phase boundary, so the
// measured phase's stats and IPC can be computed as differences of
// cumulative state. Keeping the machine's trajectory free of in-run
// resets is what lets a snapshot taken at any tick serve runs with any
// warmup/measure split.
type runMark struct {
	sched     sched.Stats
	forensics sched.ForensicsTally
	retired   []uint64
}

// mark records the counters at the current tick.
func (s *System) mark() runMark {
	m := runMark{sched: s.ctrl.Stats, forensics: s.ctrl.ForensicsTallyNow(),
		retired: make([]uint64, len(s.cores))}
	for i, c := range s.cores {
		m.retired[i] = c.Retired
	}
	return m
}

// zeroMark is the mark of a freshly built system (tick 0).
func zeroMark(cores int) runMark {
	return runMark{retired: make([]uint64, cores)}
}

// resultSince assembles the measured-phase result from the counters
// accumulated since m, over measure ticks. All counters are monotone and
// additive, so the difference is bit-identical to what resetting them at
// the mark would have measured.
func (s *System) resultSince(m runMark, measure int) CellResult {
	res := CellResult{Ticks: measure, Sched: s.ctrl.Stats.Sub(m.sched), LLCHitRate: s.llc.HitRate()}
	cycles := float64(measure) * cpuCyclesPerTick
	for i, c := range s.cores {
		res.IPC = append(res.IPC, float64(c.Retired-m.retired[i])/cycles)
	}
	if rep, ok := s.ctrl.ForensicsReport(); ok {
		res.Forensics = &ForensicsSummary{
			Thresholds:        rep.Thresholds,
			HotThreshold:      rep.HotThreshold,
			MaxInterrefACTs:   rep.MaxInterrefACTs,
			MaxVictimExposure: rep.MaxVictimExposure,
			Tally:             rep.Tally.Sub(m.forensics),
			Events:            rep.Events,
			DroppedEvents:     rep.DroppedEvents,
		}
	}
	return res
}
