package sim

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"hira/internal/cache"
	"hira/internal/cpu"
	"hira/internal/dram"
	"hira/internal/engine"
	"hira/internal/fault"
	"hira/internal/metrics"
	"hira/internal/telemetry"
	"hira/internal/workload"
)

// aloneMemory is the fixed-latency ideal memory used to compute per-trace
// alone-IPC references for weighted speedup. Using one config-independent
// reference keeps weighted-speedup ratios between configurations
// meaningful while avoiding a quadratic number of alone simulations.
//
// Every load takes the same latency, so loads complete in issue order:
// in-flight loads wait in a FIFO of due steps, and a step retires only
// the due ones from its head instead of visiting every load.
type aloneMemory struct {
	latencyTicks int
	inflight     []aloneReq // FIFO from head, due steps non-decreasing
	head         int
	now          int // steps taken
	llc          *cache.Cache
	c            *cpu.Core
}

type aloneReq struct {
	token uint64
	due   int // step at which the load completes
}

func (m *aloneMemory) Issue(req cpu.MemRequest) bool {
	if m.llc.Access(req.Addr, req.Write).Hit || req.Write {
		if !req.Write {
			m.c.Complete(req.Token)
		}
		return true
	}
	m.inflight = append(m.inflight, aloneReq{token: req.Token, due: m.now + m.latencyTicks})
	return true
}

// step advances the memory one tick, completing the loads due by then.
func (m *aloneMemory) step() {
	m.now++
	for m.head < len(m.inflight) && m.inflight[m.head].due <= m.now {
		m.c.Complete(m.inflight[m.head].token)
		m.head++
	}
	if m.head == len(m.inflight) {
		m.inflight, m.head = m.inflight[:0], 0
	} else if m.head >= 64 && m.head > len(m.inflight)/2 {
		n := copy(m.inflight, m.inflight[m.head:])
		m.inflight, m.head = m.inflight[:n], 0
	}
}

// aloneRun is the alone-IPC reference machine: one core on an unloaded
// fixed-latency memory, advanced in ticks like System.
type aloneRun struct {
	mem    *aloneMemory
	c      *cpu.Core
	budget float64
	tick   int
}

func newAloneRun(src workload.Source, seed uint64) *aloneRun {
	mem := &aloneMemory{latencyTicks: 72, llc: cache.NewLLC()}
	c := cpu.New(0, src.Stream(seed), mem)
	mem.c = c
	return &aloneRun{mem: mem, c: c}
}

// RunTo advances to the absolute tick target, polling ctx.
func (a *aloneRun) RunTo(ctx context.Context, target int) error {
	for ; a.tick < target; a.tick++ {
		if a.tick&(ctxCheckTicks-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		a.budget += 4 * cpuCyclesPerTick
		if whole := int(a.budget); whole > 0 {
			a.c.Tick(float64(whole))
			a.budget -= float64(whole)
		}
		a.mem.step()
	}
	return nil
}

// ipc reports the cumulative IPC at the current tick (the alone cell's
// result; cumulative, so it is independent of how the run was split).
func (a *aloneRun) ipc() float64 {
	return a.c.IPC(float64(a.tick) * cpuCyclesPerTick)
}

// aloneSeed derives the deterministic per-core workload seed used both by
// NewSystem's shared-run generators and the alone-IPC reference cells, so
// the two drive identical workload streams.
func aloneSeed(baseSeed uint64, core int) uint64 {
	return baseSeed*1000003 + uint64(core)*7919 + 11
}

// aloneRefSeed is aloneSeed canonicalized for seed-invariant sources:
// a trace replays identically on every core, so keying its alone cell
// by the per-core seed would simulate and store one identical cell per
// core it appears on.
func aloneRefSeed(src workload.Source, baseSeed uint64, core int) uint64 {
	if si, ok := src.(workload.SeedInvariant); ok && si.SeedInvariant() {
		return 0
	}
	return aloneSeed(baseSeed, core)
}

// Options sizes an experiment sweep. The paper runs 125 mixes of 200M
// instructions; defaults here are laptop-scale and flag-adjustable in
// cmd/hira-sim.
type Options struct {
	Workloads int // number of multiprogrammed mixes (default 4)
	Cores     int // cores per mix (default 8)
	Warmup    int // warmup memory ticks (default 30000)
	Measure   int // measured memory ticks (default 120000)
	Seed      uint64

	// Mixes, when non-nil, is the explicit workload set the sweep runs —
	// custom profiles, recorded traces, or any workload.Source per core —
	// instead of Workloads builtin SPEC mixes drawn from Seed. Every mix
	// must have exactly Cores sources; Workloads is ignored (it reports
	// as len(Mixes) after WithDefaults).
	Mixes []workload.SourceMix

	// Parallelism sizes the worker pool of the single-sweep engine the
	// package-level entry points (RunFigure, RunPolicies, Figure) build;
	// 0 means one worker per CPU core. Results are bit-identical at any
	// setting because every cell seeds from its own content. A shared
	// Engine ignores it: its EngineConfig fixed the bound, and result
	// stores and checkpoints are EngineConfig settings too.
	Parallelism int
	// Progress, when set, is called as a batch's cells resolve, with a
	// snapshot of the batch's resolution tally so far (so callers such
	// as the service's SSE progress events can stream cache-hit and
	// resumed-tick counts mid-sweep). A figure or policy sweep submits
	// all its cells as one batch, so one sweep reports one done/total
	// count; a sweep that completes ends on done == total.
	Progress func(done, total int, batch EngineStats)
	// Stats, when set, accumulates the engine's resolution tallies
	// (simulated vs cache/store hits) across the sweep.
	Stats *EngineStats

	// Forensics runs every simulation cell with the RowHammer forensics
	// ledger enabled and attaches per-policy forensics summaries to the
	// results. Purely observational (figures are bit-identical), but
	// forensics cells and their checkpoints are keyed separately, so
	// warm plain-cell stores do not serve them.
	Forensics bool
	// ForensicsRecorder additionally arms the DRAM command flight
	// recorder (implies nothing without Forensics).
	ForensicsRecorder bool
}

// WithDefaults returns o with zero fields replaced by the laptop-scale
// defaults, so callers (e.g. the service's cost estimator) can see the
// effective sweep size before running it.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.Mixes != nil {
		o.Workloads = len(o.Mixes)
	}
	if o.Workloads == 0 {
		o.Workloads = 4
	}
	if o.Cores == 0 {
		o.Cores = 8
	}
	if o.Warmup == 0 {
		o.Warmup = 30000
	}
	if o.Measure == 0 {
		o.Measure = 120000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Engine is a shared experiment engine: every sweep run through one
// Engine shares its in-memory cell cache, its on-disk result store, its
// compute bound, and its in-flight computations, so concurrent callers
// (e.g. service clients) asking overlapping questions trigger each
// simulation exactly once. Safe for concurrent use.
type Engine struct {
	eng          *experimentEngine
	snaps        *engine.SnapStore
	snapInterval int
	sim          *simMetrics

	// mixSets memoizes the workload sets the engine derives itself
	// (builtin mixes and attack-grid mixes), so a repeated request
	// derives no mix, builds no attacker and renders no source key; see
	// Engine.mixSet. Allocated on first use, at most maxMixSets entries.
	mixMu   sync.Mutex
	mixSets map[mixSetKey]*mixSet
}

// EngineConfig sizes a shared Engine.
type EngineConfig struct {
	// Parallelism bounds how many cells compute at once across all
	// concurrent sweeps; 0 means one per CPU core.
	Parallelism int
	// ResultDir, when non-empty, is the content-addressed result store.
	ResultDir string
	// SnapInterval, when positive, enables resumable simulation cells:
	// each sim cell's machine state is checkpointed every SnapInterval
	// ticks (plus at the warmup boundary and the final tick) into a
	// bounded store sharing ResultDir's sharded layout (in-memory without
	// a ResultDir), and sim cells resume from the longest usable
	// checkpoint at or below their horizon; alone-IPC references never
	// checkpoint. Results are bit-identical either way.
	SnapInterval int
	// SnapMaxBytes caps the checkpoint store's payload bytes; <= 0 means
	// 2 GiB on disk (256 MiB in memory). Least-recently-used checkpoints
	// are evicted first.
	SnapMaxBytes int64
	// Telemetry, when non-nil, is the metrics registry the engine
	// instruments itself on: cell resolution counters, per-cell wall-time
	// histograms, snapshot-store economics, and coarse scheduler
	// aggregates. Nil disables instrumentation at one branch per site.
	Telemetry *telemetry.Registry
	// FS, when non-nil, routes result- and checkpoint-store file I/O
	// through a fault-injection seam (see internal/fault) — armed by
	// chaos tests and hira-server's -faults flag, nil everywhere else.
	FS fault.FS
}

// NewEngine builds a shared experiment engine.
func NewEngine(cfg EngineConfig) *Engine {
	opts := engine.Options{
		Parallelism: cfg.Parallelism,
		ResultDir:   cfg.ResultDir,
		FS:          cfg.FS,
	}
	if cfg.Telemetry != nil {
		opts.Metrics = engine.NewMetrics(cfg.Telemetry)
	}
	e := &Engine{
		eng:          engine.New[CellResult](opts),
		snapInterval: cfg.SnapInterval,
		sim:          newSimMetrics(cfg.Telemetry),
	}
	if cfg.SnapInterval > 0 {
		e.snaps = engine.NewSnapStoreFS(cfg.ResultDir, cfg.SnapMaxBytes, cfg.FS)
	}
	if cfg.Telemetry != nil {
		engine.RegisterStatsFuncs(cfg.Telemetry, e.eng.Stats)
		if e.snaps != nil {
			engine.RegisterSnapStoreFuncs(cfg.Telemetry, e.snaps.Stats)
		}
	}
	return e
}

// Degraded reports whether either backing store has fallen off its
// configured durable path: the result store into cache-only mode, or the
// checkpoint store into in-memory mode. The returned reason names the
// store(s); ok is false when both are healthy.
func (e *Engine) Degraded() (string, bool) {
	var reasons []string
	if why, bad := e.eng.StoreDegraded(); bad {
		reasons = append(reasons, "result store: "+why)
	}
	if e.snaps != nil {
		if why, bad := e.snaps.Degraded(); bad {
			reasons = append(reasons, "checkpoint store: "+why)
		}
	}
	return strings.Join(reasons, "; "), len(reasons) > 0
}

// SnapshotStats reports the checkpoint store's tallies; ok is false when
// checkpointing is disabled.
func (e *Engine) SnapshotStats() (engine.SnapStats, bool) {
	if e.snaps == nil {
		return engine.SnapStats{}, false
	}
	return e.snaps.Stats(), true
}

// Stats returns the engine's lifetime resolution tallies across every
// sweep run on it.
func (e *Engine) Stats() EngineStats { return e.eng.Stats() }

// StoredCells reports how many cell results the on-disk store indexes.
func (e *Engine) StoredCells() int { return e.eng.StoredCells() }

// Parallelism reports the engine-wide compute bound.
func (e *Engine) Parallelism() int { return e.eng.Parallelism() }

// newSweepEngine builds the single-sweep engine the one-shot entry
// points use when no shared Engine is supplied.
func newSweepEngine(opts Options) *Engine {
	return NewEngine(EngineConfig{Parallelism: opts.Parallelism})
}

// PolicyScore is the average weighted speedup of one policy under one
// system shape.
type PolicyScore struct {
	Policy RefreshPolicy `json:"policy"`
	// WS is the mean weighted speedup across mixes.
	WS float64 `json:"ws"`
	// Sched aggregates controller stats across mixes.
	Sched SchedAggregate `json:"sched"`
	// Forensics aggregates the RowHammer forensics summaries across
	// mixes (tallies summed, maxes maxed); nil unless the sweep ran
	// with Options.Forensics.
	Forensics *ForensicsSummary `json:"forensics,omitempty"`
}

// SchedAggregate sums selected controller statistics across runs.
type SchedAggregate struct {
	HiRAPiggybacks      uint64 `json:"hira_piggybacks"`
	HiRAPairs           uint64 `json:"hira_pairs"`
	StandaloneRefreshes uint64 `json:"standalone_refreshes"`
	REFs                uint64 `json:"refs"`
	SeqBlocked          uint64 `json:"seq_blocked"`
	CanACTBlocked       uint64 `json:"can_act_blocked"`
}

// RunPolicies evaluates each policy on the same mixes and returns average
// weighted speedups. Cells run on a fresh single-sweep engine; use
// Engine.RunPolicies to share cells (and a result store) across calls.
func RunPolicies(ctx context.Context, base Config, policies []RefreshPolicy, opts Options) ([]PolicyScore, error) {
	return newSweepEngine(opts).RunPolicies(ctx, base, policies, opts)
}

// RunPolicies evaluates each policy on the same mixes on the shared
// engine.
func (e *Engine) RunPolicies(ctx context.Context, base Config, policies []RefreshPolicy, opts Options) ([]PolicyScore, error) {
	opts = opts.withDefaults()
	mixes, err := e.mixSet(opts, "")
	if err != nil {
		return nil, err
	}
	rows, batch, err := runSweep(ctx, e, opts, []sweepPoint{{base: base, policies: policies, mixes: mixes}})
	if opts.Stats != nil {
		opts.Stats.Add(batch)
	}
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// sourceMixes returns the workload set a sweep runs: opts.Mixes when the
// caller supplied explicit sources, else Workloads builtin SPEC mixes
// drawn deterministically from Seed. opts must already have defaults
// applied.
func (o Options) sourceMixes() ([]workload.SourceMix, error) {
	if o.Mixes == nil {
		if o.Workloads < 1 || o.Cores < 1 {
			return nil, fmt.Errorf("sim: %d workloads x %d cores is not a sweep", o.Workloads, o.Cores)
		}
		ms := workload.Mixes(o.Workloads, o.Cores, o.Seed)
		out := make([]workload.SourceMix, len(ms))
		for i := range ms {
			out[i] = ms[i].Sources()
		}
		return out, nil
	}
	if len(o.Mixes) == 0 {
		return nil, fmt.Errorf("sim: options.Mixes is empty; nil means builtin mixes")
	}
	for _, m := range o.Mixes {
		if len(m.Sources) != o.Cores {
			return nil, fmt.Errorf("sim: %s has %d workloads for %d cores", m, len(m.Sources), o.Cores)
		}
	}
	return o.Mixes, nil
}

// mixSet is one workload set sweep points run, with every mix's
// identity rendered once: each key a sweep derives embeds it, and
// rendering it per point, per cell or per core would dominate an
// all-hit request's cost. The sets an Engine derives itself are
// memoized across requests (Engine.mixSet), so a set is read-only once
// built: sweeps share it, and its sources are immutable. Points of one
// batch sharing a mixSet also share its alone-IPC reference cells.
type mixSet struct {
	mixes []workload.SourceMix
	ids   []mixIdentity
}

// newMixSet renders mixes' identities.
func newMixSet(mixes []workload.SourceMix) *mixSet {
	ids := make([]mixIdentity, len(mixes))
	for mi, mix := range mixes {
		ids[mi] = identify(mix)
	}
	return &mixSet{mixes: mixes, ids: ids}
}

// mixSet is sourceMixes with identities rendered. opts must already
// have defaults applied.
func (o Options) mixSet() (*mixSet, error) {
	mixes, err := o.sourceMixes()
	if err != nil {
		return nil, err
	}
	return newMixSet(mixes), nil
}

// maxMixSets bounds an Engine's mix-set memo. A full memo still serves
// what it holds; a set past the bound is derived and not stored.
const maxMixSets = 64

// mixSetKey is every input that derives a set the engine memoizes: the
// attacker preset ("" for builtin SPEC mixes), and the builtin mixes'
// count, cores and seed. An attack set is one mix whatever the count,
// so its key carries workloads 0.
type mixSetKey struct {
	attack           string
	workloads, cores int
	seed             uint64
}

// derive builds the set k names: Options.mixSet's builtin mixes, or
// attack preset k.attack on core 0 of the first builtin mix, targeting
// the default system's organization.
func (k mixSetKey) derive() (*mixSet, error) {
	if k.attack == "" {
		return Options{Workloads: k.workloads, Cores: k.cores, Seed: k.seed}.mixSet()
	}
	benign := workload.Mixes(1, k.cores, k.seed)[0].Sources()
	mix, err := attackMix(k.attack, OrgFor(DefaultConfig()), benign)
	if err != nil {
		return nil, err
	}
	return newMixSet([]workload.SourceMix{mix}), nil
}

// mixSet returns the workload set a point of attacker preset attack
// ("" for none) runs under opts: opts.Mixes, rendered afresh because
// their identity is their content, or the engine's builtin or attack
// set from its memo. opts must already have defaults applied.
func (e *Engine) mixSet(opts Options, attack string) (*mixSet, error) {
	if opts.Mixes != nil {
		return opts.mixSet()
	}
	k := mixSetKey{attack: attack, workloads: opts.Workloads, cores: opts.Cores, seed: opts.Seed}
	if attack != "" {
		k.workloads = 0
	}
	e.mixMu.Lock()
	set := e.mixSets[k]
	e.mixMu.Unlock()
	if set != nil {
		return set, nil
	}
	// Derive outside the lock; a concurrent request deriving the same
	// set keeps whichever landed first, so every caller shares one.
	set, err := k.derive()
	if err != nil {
		return nil, err
	}
	e.mixMu.Lock()
	defer e.mixMu.Unlock()
	if prev := e.mixSets[k]; prev != nil {
		return prev, nil
	}
	if len(e.mixSets) < maxMixSets {
		if e.mixSets == nil {
			e.mixSets = make(map[mixSetKey]*mixSet)
		}
		e.mixSets[k] = set
	}
	return set, nil
}

// sweepPoint is one point of a sweep: its policies evaluated on base
// over mixes.
type sweepPoint struct {
	base     Config
	policies []RefreshPolicy
	mixes    *mixSet
}

// runSweep submits every point's cells as one engine batch — the
// alone-IPC reference cells each mix set needs, then one simulation
// cell per (point, policy, mix) — and assembles weighted speedups:
// rows[point] is one score per policy. Cells are described by index
// (see sweepBatch), so the engine renders each key to look it up and
// builds only the cells it lacks. opts supplies what the points share
// (cores, seed, warmup and measure horizons, forensics, progress
// callback); opts.Mixes and opts.Stats are ignored, and the batch's
// resolution tally is returned, also on error. One batch means one
// progress total, one dispatch barrier, and an alone reference several
// points need is submitted (and simulated) once. opts must already have
// defaults applied.
func runSweep(ctx context.Context, lab *Engine, opts Options, points []sweepPoint) ([][]PolicyScore, EngineStats, error) {
	if opts.Measure <= 0 {
		return nil, EngineStats{}, fmt.Errorf("sim: measure horizon %d is not positive", opts.Measure)
	}

	sw := newSweepBatch(lab, opts, points)
	results, batch, err := lab.eng.RunWith(ctx, sw, engine.RunOptions{OnProgress: opts.Progress})
	if err != nil {
		return nil, batch, err
	}

	rows := make([][]PolicyScore, len(points))
	var ws []float64 // per-mix scratch, reused by every point
	for pi, p := range points {
		refs := sw.aloneRefs[p.mixes]
		ws = slices.Grow(ws[:0], len(refs))[:len(refs)]
		alone := make([][]float64, len(refs)) // [mix][core]
		for mi, cores := range refs {
			alone[mi] = make([]float64, len(cores))
			for c, ref := range cores {
				alone[mi][c] = results[ref].Alone
			}
		}
		scores := make([]PolicyScore, len(p.policies))
		next := sw.simStart[pi]
		for si, pol := range p.policies {
			var agg SchedAggregate
			var fx *ForensicsSummary
			for mi := range ws {
				res := results[next]
				next++
				ws[mi] = metrics.WeightedSpeedup(res.IPC, alone[mi])
				agg.HiRAPiggybacks += res.Sched.HiRAPiggybacks
				agg.HiRAPairs += res.Sched.HiRAPairs
				agg.StandaloneRefreshes += res.Sched.StandaloneRefreshes
				agg.REFs += res.Sched.REFs
				agg.SeqBlocked += res.Sched.SeqBlocked
				agg.CanACTBlocked += res.Sched.CanACTBlocked
				fx = MergeForensics(fx, res.Forensics)
			}
			scores[si] = PolicyScore{Policy: pol, WS: metrics.Mean(ws), Sched: agg, Forensics: fx}
		}
		rows[pi] = scores
	}
	return rows, batch, nil
}

// newSweepBatch lays out runSweep's batch: the alone-IPC reference
// cells each mix set needs, then one simulation cell per (point,
// policy, mix).
func newSweepBatch(lab *Engine, opts Options, points []sweepPoint) *sweepBatch {
	sw := &sweepBatch{
		lab: lab, points: points,
		cores: opts.Cores, seed: opts.Seed, warmup: opts.Warmup, measure: opts.Measure,
		fx:        ForensicsOptions{Enabled: opts.Forensics, Recorder: opts.Forensics && opts.ForensicsRecorder},
		aloneRefs: map[*mixSet][][]int{},
		simStart:  make([]int, len(points)),
	}
	// aloneIdx dedups alone cells by their key's inputs: a seed-invariant
	// source dealt to several cores, or a mix several sets share, has one
	// reference.
	type aloneID struct {
		src  string
		seed uint64
	}
	aloneIdx := map[aloneID]int{} // -> index into sw.cells
	for pi, p := range points {
		set := p.mixes
		if _, ok := sw.aloneRefs[set]; ok {
			continue
		}
		refs := make([][]int, len(set.mixes))
		for mi, mix := range set.mixes {
			refs[mi] = make([]int, len(mix.Sources))
			for c, src := range mix.Sources {
				id := aloneID{src: set.ids[mi].srcs[c], seed: aloneRefSeed(src, opts.Seed, c)}
				idx, ok := aloneIdx[id]
				if !ok {
					idx = len(sw.cells)
					aloneIdx[id] = idx
					sw.cells = append(sw.cells, sweepCell{alone: true, point: pi, mix: mi, core: c})
				}
				refs[mi][c] = idx
			}
		}
		sw.aloneRefs[set] = refs
	}
	nSim := 0
	for _, p := range points {
		nSim += len(p.policies) * len(p.mixes.mixes)
	}
	sw.cells = slices.Grow(sw.cells, nSim)
	for pi, p := range points {
		sw.simStart[pi] = len(sw.cells)
		for si := range p.policies {
			for mi := range p.mixes.mixes {
				sw.cells = append(sw.cells, sweepCell{point: pi, policy: si, mix: mi})
			}
		}
	}
	return sw
}

// sweepCell is one position of a sweep batch, by index: the sim cell
// of (point, policy, mix), or with alone set the alone-IPC reference of
// core's source in mix of point's mix set.
type sweepCell struct {
	alone                    bool
	point, policy, mix, core int
}

// sweepBatch is runSweep's engine batch. Positions are index tuples; a
// position's key is rendered, and its cell built, only when the engine
// asks, so an answer the cache holds costs one key rendering into the
// engine's buffer and nothing else.
type sweepBatch struct {
	lab             *Engine
	points          []sweepPoint
	cores           int
	seed            uint64
	warmup, measure int
	fx              ForensicsOptions
	cells           []sweepCell

	// aloneRefs[set][mix][core] and simStart[point] (the first cell of
	// that point's policy x mix block) index cells.
	aloneRefs map[*mixSet][][]int
	simStart  []int
}

func (sw *sweepBatch) Len() int { return len(sw.cells) }

// config is sim cell c's configuration: its point's base with the
// sweep's shared fields and c's policy.
func (sw *sweepBatch) config(c sweepCell) Config {
	p := &sw.points[c.point]
	cfg := p.base
	cfg.Cores = sw.cores
	cfg.Policy = p.policies[c.policy]
	cfg.Seed = sw.seed
	cfg.Forensics = sw.fx
	return cfg
}

// aloneSource is alone cell c's source, its rendered Key and its seed.
func (sw *sweepBatch) aloneSource(c sweepCell) (workload.Source, string, uint64) {
	set := sw.points[c.point].mixes
	src := set.mixes[c.mix].Sources[c.core]
	return src, set.ids[c.mix].srcs[c.core], aloneRefSeed(src, sw.seed, c.core)
}

// AppendKey renders position i's key with the renderers simCell and
// aloneCell key their cells with.
func (sw *sweepBatch) AppendKey(dst []byte, i int) []byte {
	c := sw.cells[i]
	if c.alone {
		_, srcKey, seed := sw.aloneSource(c)
		return appendAloneCellKey(dst, srcKey, seed, sw.measure)
	}
	wl := sw.points[c.point].mixes.ids[c.mix].wl
	return appendSimCellKey(dst, sw.config(c), wl, sw.warmup, sw.measure)
}

// Cell builds position i's cell.
func (sw *sweepBatch) Cell(i int) engine.Cell[CellResult] {
	c := sw.cells[i]
	if c.alone {
		src, srcKey, seed := sw.aloneSource(c)
		return aloneCell(src, srcKey, seed, sw.measure)
	}
	set := sw.points[c.point].mixes
	return simCell(sw.lab, sw.config(c), set.mixes[c.mix], set.ids[c.mix].wl, sw.warmup, sw.measure)
}

// Fig9Row is one capacity point of Fig. 9.
type Fig9Row struct {
	CapacityGbit int `json:"capacity_gbit"`
	// WS maps policy name to average weighted speedup; NormNoRefresh and
	// NormBaseline are Fig. 9a/9b normalizations.
	WS            map[string]float64 `json:"ws"`
	NormNoRefresh map[string]float64 `json:"norm_no_refresh"`
	NormBaseline  map[string]float64 `json:"norm_baseline"`
	// Forensics maps policy name to its aggregated forensics summary;
	// nil unless the sweep ran with Options.Forensics.
	Forensics map[string]*ForensicsSummary `json:"forensics,omitempty"`
}

// Fig12Row is one RowHammer-threshold point of Fig. 12.
type Fig12Row struct {
	NRH          int                `json:"nrh"`
	WS           map[string]float64 `json:"ws"`
	NormBaseline map[string]float64 `json:"norm_baseline"` // Fig. 12a: vs no-defense baseline
	NormPARA     map[string]float64 `json:"norm_para"`     // Fig. 12b: vs PARA without HiRA
	// Forensics maps policy name to its aggregated forensics summary;
	// nil unless the sweep ran with Options.Forensics.
	Forensics map[string]*ForensicsSummary `json:"forensics,omitempty"`
}

// ScaleRow is one point of the §10 channel/rank sensitivity sweeps
// (Figs. 13-16).
type ScaleRow struct {
	// X is the swept quantity (channel or rank count).
	X int `json:"x"`
	// Param is the second parameter (chip capacity for Figs. 13/14, NRH
	// for Figs. 15/16).
	Param int                `json:"param"`
	WS    map[string]float64 `json:"ws"`
	// Forensics maps policy name to its aggregated forensics summary;
	// nil unless the sweep ran with Options.Forensics.
	Forensics map[string]*ForensicsSummary `json:"forensics,omitempty"`
}

// AttackRow is one (attack, NRH) point of the attack×mitigation sweep:
// weighted speedups per policy plus each policy's forensics summary —
// the efficacy verdict lives in Forensics[policy].MaxVictimExposure and
// .Tally.VictimCrossings against the row's NRH.
type AttackRow struct {
	Attack string             `json:"attack"`
	NRH    int                `json:"nrh"`
	WS     map[string]float64 `json:"ws"`
	// NormBaseline normalizes each policy's WS to the no-defense
	// Baseline under the same attack: the performance cost of defending.
	NormBaseline map[string]float64           `json:"norm_baseline"`
	Forensics    map[string]*ForensicsSummary `json:"forensics,omitempty"`
}

// FigureResult is the serializable envelope of one figure run: exactly
// one of the row slices is set, per Kind. cmd/hira-sim's -json flag and
// the experiment service emit this identical encoding, so CLI and HTTP
// outputs are diffable.
type FigureResult struct {
	Kind   string      `json:"kind"`
	Fig9   []Fig9Row   `json:"fig9,omitempty"`
	Fig12  []Fig12Row  `json:"fig12,omitempty"`
	Scale  []ScaleRow  `json:"scale,omitempty"`
	Attack []AttackRow `json:"attack,omitempty"`
	// Stats tallies how the engine resolved this figure's cells.
	Stats EngineStats `json:"engine_stats"`
}

// policyWS maps each score's policy name to its weighted speedup: every
// row's WS column, and the base of its normalizations (see normTo).
func policyWS(scores []PolicyScore) map[string]float64 {
	ws := make(map[string]float64, len(scores))
	for _, s := range scores {
		ws[s.Policy.Name] = s.WS
	}
	return ws
}

// normTo divides every policy's WS by ref's. The map is empty, not nil,
// when ref has no positive WS, so the row still encodes the column.
func normTo(ws map[string]float64, ref string) map[string]float64 {
	norm := make(map[string]float64, len(ws))
	if r := ws[ref]; r > 0 {
		for name, w := range ws {
			norm[name] = w / r
		}
	}
	return norm
}

// forensicsByPolicy collects scores' forensics summaries into a
// per-policy-name map. It returns nil when no score carries one, so
// figure rows from non-forensics sweeps stay byte-identical to before
// forensics existed.
func forensicsByPolicy(scores []PolicyScore) map[string]*ForensicsSummary {
	var m map[string]*ForensicsSummary
	for _, s := range scores {
		if s.Forensics == nil {
			continue
		}
		if m == nil {
			m = map[string]*ForensicsSummary{}
		}
		m[s.Policy.Name] = s.Forensics
	}
	return m
}

func fig9Row(cap int, scores []PolicyScore) Fig9Row {
	ws := policyWS(scores)
	return Fig9Row{CapacityGbit: cap, WS: ws, NormNoRefresh: normTo(ws, "NoRefresh"),
		NormBaseline: normTo(ws, "Baseline"), Forensics: forensicsByPolicy(scores)}
}

func fig12Row(nrh int, scores []PolicyScore) Fig12Row {
	ws := policyWS(scores)
	return Fig12Row{NRH: nrh, WS: ws, NormBaseline: normTo(ws, "Baseline"),
		NormPARA: normTo(ws, "PARA"), Forensics: forensicsByPolicy(scores)}
}

func scaleRow(x, param int, scores []PolicyScore) ScaleRow {
	return ScaleRow{X: x, Param: param, WS: policyWS(scores), Forensics: forensicsByPolicy(scores)}
}

func attackRow(kind string, nrh int, scores []PolicyScore) AttackRow {
	ws := policyWS(scores)
	return AttackRow{Attack: kind, NRH: nrh, WS: ws, NormBaseline: normTo(ws, "Baseline"),
		Forensics: forensicsByPolicy(scores)}
}

// Fig9Capacities is the x-axis of Fig. 9.
func Fig9Capacities() []int { return []int{2, 4, 8, 16, 32, 64, 128} }

// Fig12NRHValues is the x-axis of Fig. 12.
func Fig12NRHValues() []int { return []int{64, 128, 256, 512, 1024} }

// ScaleXValues is the channel/rank sweep of §10.
func ScaleXValues() []int { return []int{1, 2, 4, 8} }

// AttackNRHValues is the default threshold axis of the attack sweep: low
// enough that an unmitigated attack crosses NRH within a laptop-scale
// measured phase. (An attack round spreads its activations over each
// aggressor's whole eviction class, so victim exposure accrues at
// roughly 2/(aggressors*EvictRows) of the bank's activation rate —
// around 200 over the default horizons.)
func AttackNRHValues() []int { return []int{64, 128} }

// AttackKinds lists the attacker presets AttackSweep runs by default:
// plain single-, double-, and many-sided hammering, a
// refresh-synchronized double-sided variant (hammer bursts separated by
// idle gaps, probing duty-cycled trackers), and a decoy variant
// (interleaved far-row accesses diluting activation-frequency trackers).
func AttackKinds() []string {
	return []string{"single", "double", "many", "refsync", "decoy"}
}

// fig9Policies is Fig. 9's policy set (§8), the same at every capacity:
// No Refresh, Baseline REF, and HiRA-{0,2,4,8}. Sweeps only read it.
func fig9Policies(int) []RefreshPolicy { return fig9PolicySet }

var fig9PolicySet = []RefreshPolicy{
	NoRefreshPolicy(), BaselinePolicy(),
	HiRAPeriodicPolicy(0), HiRAPeriodicPolicy(2), HiRAPeriodicPolicy(4), HiRAPeriodicPolicy(8),
}

// fig12Policies is Fig. 12's policy set at one RowHammer threshold
// (§9.2): Baseline (no defense), PARA, and PARA+HiRA-{0,2,4,8}.
func fig12Policies(nrh int) []RefreshPolicy {
	return []RefreshPolicy{
		BaselinePolicy(), PARAPolicy(nrh),
		PARAHiRAPolicy(nrh, 0), PARAHiRAPolicy(nrh, 2),
		PARAHiRAPolicy(nrh, 4), PARAHiRAPolicy(nrh, 8),
	}
}

// periodicScalePolicies is the policy set of Figs. 13/14, the same at
// every capacity. Sweeps only read it.
func periodicScalePolicies(int) []RefreshPolicy { return periodicScalePolicySet }

var periodicScalePolicySet = []RefreshPolicy{BaselinePolicy(), HiRAPeriodicPolicy(2), HiRAPeriodicPolicy(4)}

// paraScalePolicies is the policy set of Figs. 15/16.
func paraScalePolicies(nrh int) []RefreshPolicy {
	return []RefreshPolicy{PARAPolicy(nrh), PARAHiRAPolicy(nrh, 2), PARAHiRAPolicy(nrh, 4)}
}

// attackSweepPolicies is the mitigation zoo evaluated at one threshold:
// no defense, PARA (the paper's probabilistic preventive baseline), and
// the two deterministic zoo engines with their default sizing. The
// Baseline entry carries the row's NRH purely to anchor its forensics
// ledger thresholds — with no preventive mechanism the engine never
// consults it, so the cell's command stream is the true no-defense run.
func attackSweepPolicies(nrh int) []RefreshPolicy {
	base := BaselinePolicy()
	base.NRH = nrh
	return []RefreshPolicy{
		base,
		PARAPolicy(nrh),
		GraphenePolicy(nrh, 0),
		RFMPolicy(nrh, 0),
	}
}

// defaultConfig is Table 3's system at every point.
func defaultConfig(int, int) Config { return DefaultConfig() }

// capacityConfig is Table 3's system with cap-Gb chips.
func capacityConfig(_, cap int) Config {
	base := DefaultConfig()
	base.ChipCapacityGbit = cap
	return base
}

// scaleConfig is one scale-sweep point's system: x channels (or ranks)
// of cap-Gb chips.
func scaleConfig(x, cap int, channels bool) Config {
	base := capacityConfig(0, cap)
	if channels {
		base.Channels = x
	} else {
		base.Ranks = x
	}
	return base
}

// attackPreset builds the AttackSpec one preset names, targeting the
// middle row of bank 2 of the given organization.
func attackPreset(kind string, org dram.Org) (workload.AttackSpec, error) {
	spec := workload.AttackSpec{Bank: 2, VictimRow: org.RowsPerBank() / 2}
	switch kind {
	case "single":
		spec.Kind = workload.AttackSingle
	case "double":
		spec.Kind = workload.AttackDouble
	case "many":
		spec.Kind = workload.AttackMany
		spec.Aggressors = 8
	case "refsync":
		spec.Kind = workload.AttackDouble
		spec.BurstAccesses = 128
		spec.IdleGap = 2048
	case "decoy":
		spec.Kind = workload.AttackDouble
		spec.Decoys = 4
	default:
		return spec, fmt.Errorf("sim: unknown attack kind %q (want one of %v)", kind, AttackKinds())
	}
	return spec, nil
}

// attackMix is the one mix an attack sweep runs kind on: the attacker
// targeting org on core 0, benign's sources on the other cores.
func attackMix(kind string, org dram.Org, benign workload.SourceMix) (workload.SourceMix, error) {
	spec, err := attackPreset(kind, org)
	if err != nil {
		return workload.SourceMix{}, err
	}
	atk, err := workload.NewAttack(spec, org)
	if err != nil {
		return workload.SourceMix{}, err
	}
	return workload.SourceMix{ID: 0, Sources: append([]workload.Source{atk}, benign.Sources[1:]...)}, nil
}

// FigureSpec names one figure run: a kind from the figure table (see
// FigureKinds) and the grids it sweeps. A nil grid takes the kind's
// paper default, and an empty non-nil grid sweeps nothing and yields no
// rows. A grid the kind does not consume is an error.
type FigureSpec struct {
	Kind string
	// Capacities is the chip-capacity grid in Gbit: Fig. 9's x-axis and
	// Figs. 13/14's second parameter.
	Capacities []int
	// NRHs is the RowHammer-threshold grid: Fig. 12's x-axis and the
	// second parameter of Figs. 15/16 and the attack grid.
	NRHs []int
	// Xs is the channel (Figs. 13/15) or rank (Figs. 14/16) axis.
	Xs []int
	// Attacks lists the attack grid's attacker presets (AttackKinds).
	Attacks []string
}

// figure is one entry of the figure table. Every figure is one sweep
// shape: for each attacker preset, each parameter value, and each x, one
// point evaluating the kind's policies on the point's system.
type figure struct {
	kind string
	// capacities, nrhs, xs and attacks are the paper defaults of the
	// grids the kind consumes; a nil default means the kind takes no such
	// grid. Exactly one of capacities and nrhs is set: the kind's
	// parameter axis. A kind without xs has one x per parameter (0), and
	// one without attacks one attacker pass ("").
	capacities, nrhs, xs []int
	// attacks, when set, also means the kind builds its own mixes (see
	// ownMixes).
	attacks []string
	// policies is the policy set evaluated at one parameter value.
	policies func(param int) []RefreshPolicy
	// config is the system of the point (x, param).
	config func(x, param int) Config
	// row appends the point (attack, param, x)'s row to res, whose rows
	// number n in all.
	row func(res *FigureResult, n int, attack string, param, x int, scores []PolicyScore)
}

// figures is the figure table: the paper's system results (Figs. 9, 12
// and 13-16) and the attack×mitigation grid.
var figures = []figure{
	{kind: "fig9", capacities: Fig9Capacities(), policies: fig9Policies, config: capacityConfig,
		row: func(res *FigureResult, n int, _ string, cap, _ int, s []PolicyScore) {
			appendRow(&res.Fig9, n, fig9Row(cap, s))
		}},
	{kind: "fig12", nrhs: Fig12NRHValues(), policies: fig12Policies, config: defaultConfig,
		row: func(res *FigureResult, n int, _ string, nrh, _ int, s []PolicyScore) {
			appendRow(&res.Fig12, n, fig12Row(nrh, s))
		}},
	// Figs. 13/14: channels, then ranks, under periodic refresh.
	{kind: "fig13", capacities: []int{2, 8, 32}, xs: ScaleXValues(), policies: periodicScalePolicies,
		config: func(x, cap int) Config { return scaleConfig(x, cap, true) }, row: appendScaleRow},
	{kind: "fig14", capacities: []int{2, 8, 32}, xs: ScaleXValues(), policies: periodicScalePolicies,
		config: func(x, cap int) Config { return scaleConfig(x, cap, false) }, row: appendScaleRow},
	// Figs. 15/16: channels, then ranks, under PARA with 8 Gb chips.
	{kind: "fig15", nrhs: []int{1024, 256, 64}, xs: ScaleXValues(), policies: paraScalePolicies,
		config: func(x, _ int) Config { return scaleConfig(x, 8, true) }, row: appendScaleRow},
	{kind: "fig16", nrhs: []int{1024, 256, 64}, xs: ScaleXValues(), policies: paraScalePolicies,
		config: func(x, _ int) Config { return scaleConfig(x, 8, false) }, row: appendScaleRow},
	{kind: "attack", nrhs: AttackNRHValues(), attacks: AttackKinds(), policies: attackSweepPolicies,
		config: defaultConfig,
		row: func(res *FigureResult, n int, kind string, nrh, _ int, s []PolicyScore) {
			appendRow(&res.Attack, n, attackRow(kind, nrh, s))
		}},
}

// ownMixes reports whether the kind builds its own mixes rather than
// running the caller's: each attacker preset runs on core 0 of the first
// builtin benign mix, one mix per point, always with the forensics
// ledger.
func (f *figure) ownMixes() bool { return f.attacks != nil }

func appendScaleRow(res *FigureResult, n int, _ string, param, x int, s []PolicyScore) {
	appendRow(&res.Scale, n, scaleRow(x, param, s))
}

// appendRow appends r to *rows, sized for all n rows on the first.
func appendRow[R any](rows *[]R, n int, r R) {
	if *rows == nil {
		*rows = make([]R, 0, n)
	}
	*rows = append(*rows, r)
}

// FigureKinds lists the figure table's kinds in table order.
func FigureKinds() []string {
	kinds := make([]string, len(figures))
	for i := range figures {
		kinds[i] = figures[i].kind
	}
	return kinds
}

func lookupFigure(kind string) *figure {
	for i := range figures {
		if figures[i].kind == kind {
			return &figures[i]
		}
	}
	return nil
}

// figureRun is a FigureSpec resolved against its table entry: the grids
// its points iterate, in row order, and the options they share.
type figureRun struct {
	fig        *figure
	attacks    []string // one "" pass for kinds without attackers
	params, xs []int    // xs is one 0 pass for kinds without that axis
	opts       Options  // defaults applied
}

// resolve checks spec and opts against spec's table entry, taking the
// paper default for each nil grid. It rejects an unknown kind or
// attacker preset, a grid the kind does not consume, and custom mixes on
// a kind that builds its own, which also always runs the forensics
// ledger.
func (spec FigureSpec) resolve(opts Options) (figureRun, error) {
	f := lookupFigure(spec.Kind)
	if f == nil {
		return figureRun{}, fmt.Errorf("sim: unknown figure kind %q (want one of %v)", spec.Kind, FigureKinds())
	}
	if err := cmp.Or(
		takeGrid(f.kind, "a capacities grid", &spec.Capacities, f.capacities),
		takeGrid(f.kind, "an nrhs grid", &spec.NRHs, f.nrhs),
		takeGrid(f.kind, "a channel/rank axis (xs)", &spec.Xs, f.xs),
		takeGrid(f.kind, "an attacks list", &spec.Attacks, f.attacks),
	); err != nil {
		return figureRun{}, err
	}
	for _, a := range spec.Attacks {
		// The attack grid's default runs every preset.
		if !slices.Contains(f.attacks, a) {
			return figureRun{}, fmt.Errorf("sim: unknown attack %q (want one of %v)", a, f.attacks)
		}
	}
	r := figureRun{fig: f, attacks: spec.Attacks, params: spec.NRHs, xs: spec.Xs, opts: opts.withDefaults()}
	if !f.ownMixes() {
		r.attacks = []string{""}
	} else if r.opts.Mixes != nil {
		return figureRun{}, fmt.Errorf("sim: %s builds its own mixes and takes no custom workloads", f.kind)
	} else {
		r.opts.Forensics = true
	}
	if f.capacities != nil {
		r.params = spec.Capacities
	}
	if f.xs == nil {
		r.xs = []int{0}
	}
	return r, nil
}

// takeGrid defaults a nil *grid to def, or rejects a non-nil one when the
// kind takes no such grid (def is nil).
func takeGrid[T any](kind, what string, grid *[]T, def []T) error {
	switch {
	case def == nil && *grid != nil:
		return fmt.Errorf("sim: %s does not take %s", kind, what)
	case *grid == nil:
		*grid = def
	}
	return nil
}

// FigureCells counts the simulation cells RunFigure would submit for
// spec under opts, alone-IPC references aside, without building a mix:
// each point's policies times the mixes a point runs. It rejects what
// RunFigure rejects before simulating. Of opts.Mixes it reads only
// whether it is set and its length, so a caller may size it before
// resolving any source.
func FigureCells(spec FigureSpec, opts Options) (int64, error) {
	r, err := spec.resolve(opts)
	if err != nil {
		return 0, err
	}
	mixes := r.opts.Workloads
	if r.fig.ownMixes() {
		mixes = 1
	}
	var policies int
	for _, param := range r.params {
		policies += len(r.fig.policies(param))
	}
	return int64(policies) * int64(len(r.attacks)*len(r.xs)*mixes), nil
}

// RunFigure runs one figure of the figure table on a fresh single-sweep
// engine.
func RunFigure(ctx context.Context, opts Options, spec FigureSpec) (*FigureResult, error) {
	return newSweepEngine(opts).RunFigure(ctx, opts, spec)
}

// RunFigure runs one figure of the figure table on the shared engine:
// every point of spec's grids is submitted as one engine batch, and the
// rows come back in the serializable envelope, in point order. It
// rejects an unknown kind or attacker preset, a grid the kind does not
// consume, and custom mixes on the attack grid, which builds its own.
func (e *Engine) RunFigure(ctx context.Context, opts Options, spec FigureSpec) (*FigureResult, error) {
	r, err := spec.resolve(opts)
	if err != nil {
		return nil, err
	}
	points, err := r.points(e)
	if err != nil {
		return nil, err
	}
	sweep, stats, err := runSweep(ctx, e, r.opts, points)
	if opts.Stats != nil {
		opts.Stats.Add(stats)
	}
	if err != nil {
		return nil, err
	}
	res := &FigureResult{Kind: r.fig.kind, Stats: stats}
	i := 0
	for _, a := range r.attacks {
		for _, param := range r.params {
			for _, x := range r.xs {
				r.fig.row(res, len(points), a, param, x, sweep[i])
				i++
			}
		}
	}
	return res, nil
}

// points builds the run's sweep points in row order, with their mix
// sets from e. Kinds without attackers share the options' mixes; the
// attack grid's preset runs on core 0 of the first builtin SPEC mix
// drawn from the seed, so the attack hides in otherwise benign traffic.
func (r figureRun) points(e *Engine) ([]sweepPoint, error) {
	points := make([]sweepPoint, 0, len(r.attacks)*len(r.params)*len(r.xs))
	for _, a := range r.attacks {
		mixes, err := e.mixSet(r.opts, a)
		if err != nil {
			return nil, err
		}
		for _, param := range r.params {
			policies := r.fig.policies(param)
			for _, x := range r.xs {
				points = append(points, sweepPoint{base: r.fig.config(x, param), policies: policies, mixes: mixes})
			}
		}
	}
	return points, nil
}

// Figure runs one named figure sweep on a fresh single-sweep engine.
func Figure(ctx context.Context, kind string, opts Options, xs, params []int) (*FigureResult, error) {
	return newSweepEngine(opts).Figure(ctx, kind, opts, xs, params)
}

// Figure is RunFigure with the kind's parameter axis given positionally:
// params is the capacities grid for fig9/13/14 and the NRH grid for
// fig12/15/16 and attack, xs the channel/rank axis of figs. 13-16. The
// attack grid runs every preset. Nil slices take the paper defaults; a
// non-nil xs on a kind without that axis is an error.
func (e *Engine) Figure(ctx context.Context, kind string, opts Options, xs, params []int) (*FigureResult, error) {
	spec := FigureSpec{Kind: kind, Xs: xs, NRHs: params}
	if f := lookupFigure(kind); f != nil && f.capacities != nil {
		spec.Capacities, spec.NRHs = params, nil
	}
	return e.RunFigure(ctx, opts, spec)
}

// AttackSweep runs each attacker preset (core 0 of an otherwise benign
// mix) against each mitigation at each RowHammer threshold, on the
// shared engine. Attack cells always run with the forensics ledger
// enabled: the sweep's deliverable is the per-point efficacy metrics
// (victim exposure and crossings) alongside weighted speedup. Nil
// attacks or nrhs take the defaults.
func (e *Engine) AttackSweep(ctx context.Context, opts Options, attacks []string, nrhs []int) ([]AttackRow, error) {
	res, err := e.RunFigure(ctx, opts, FigureSpec{Kind: "attack", NRHs: nrhs, Attacks: attacks})
	if err != nil {
		return nil, err
	}
	return res.Attack, nil
}
