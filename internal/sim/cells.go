package sim

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"hira/internal/engine"
	"hira/internal/sched"
	"hira/internal/telemetry"
	"hira/internal/workload"
)

// EngineStats tallies how the experiment engine resolved a sweep's cells
// (simulated vs served from cache or the result store). See Options.Stats.
type EngineStats = engine.Stats

// CellResult is the JSON-serializable payload of one engine cell: the
// measured-phase outputs of a full system simulation, or (for reference
// cells) an alone-IPC value. WeightedSpeedup is deliberately absent — it
// depends on other cells' alone references and is recomputed when sweeps
// assemble scores, so a cell's identity covers exactly its own inputs.
type CellResult struct {
	IPC        []float64   `json:"ipc,omitempty"`
	Sched      sched.Stats `json:"sched"`
	LLCHitRate float64     `json:"llc_hit_rate,omitempty"`
	Ticks      int         `json:"ticks,omitempty"`
	Alone      float64     `json:"alone,omitempty"`
	// Forensics is present only for cells simulated with the RowHammer
	// forensics ledger enabled (their keys carry a forensics suffix, so
	// plain and forensics cells never share a store entry).
	Forensics *ForensicsSummary `json:"forensics,omitempty"`
}

// experimentEngine is the engine instantiation every sweep runs on.
type experimentEngine = engine.Engine[CellResult]

// mixIdentity is a mix's rendered workload identity: every source's
// Key in core order, and their comma join — the wl= field of sim-cell
// and trajectory keys. Rendering it dominates an all-hit request's key
// cost, so a mixSet renders each mix once and hands the strings to every
// cell it keys; the sets an Engine derives itself (builtin and attack
// mixes) are rendered once per engine, caller-supplied mixes once per
// request.
type mixIdentity struct {
	srcs []string
	wl   string
}

// identify renders mix's workload identity.
func identify(mix workload.SourceMix) mixIdentity {
	srcs := make([]string, len(mix.Sources))
	for i, s := range mix.Sources {
		srcs[i] = s.Key()
	}
	return mixIdentity{srcs: srcs, wl: strings.Join(srcs, ",")}
}

// defaultSPTCoverageText is defaultSPTCoverage as appendSimShape
// renders it, formatted once: nearly every key carries it.
var defaultSPTCoverageText = strconv.FormatFloat(defaultSPTCoverage, 'g', -1, 64)

// appendSimShape and appendSimWorkload render the fields every sim-cell
// key and trajectory key shares, appended after the key's version tag.
// appendSimShape renders system shape, SPT coverage, seed and refresh
// policy behavior (mode fields, not the display name, so identically
// configured policies share a key); appendSimWorkload renders the mix's
// workload identity wl (see workload.Source.Key, which guarantees
// distinct workloads never alias) and the mitigation suffix. A sim-cell
// key puts its horizons (appendHorizon) between the two; trajectories
// are horizon-free. Because every key renders through both halves, any
// input that distinguishes two sim cells other than the horizons
// distinguishes their trajectories too. Result stores and checkpoints
// are addressed by these bytes, so they must not change without a
// version bump (TestGoldenCellKeys pins them).
func appendSimShape(b []byte, cfg Config) []byte {
	b = strconv.AppendInt(append(b, " cores="...), int64(cfg.Cores), 10)
	b = strconv.AppendInt(append(b, " cap="...), int64(cfg.ChipCapacityGbit), 10)
	b = strconv.AppendInt(append(b, " ch="...), int64(cfg.Channels), 10)
	b = strconv.AppendInt(append(b, " rk="...), int64(cfg.Ranks), 10)
	b = append(b, " spt="...)
	if cov := cfg.SPTCoverage; cov == 0 || cov == defaultSPTCoverage {
		b = append(b, defaultSPTCoverageText...) // 0 is NewSystem's fallback; keep the key canonical
	} else {
		b = strconv.AppendFloat(b, cov, 'g', -1, 64)
	}
	b = strconv.AppendUint(append(b, " seed="...), cfg.Seed, 10)
	b = strconv.AppendUint(append(b, " per="...), uint64(cfg.Policy.Periodic), 10)
	b = strconv.AppendUint(append(b, " prev="...), uint64(cfg.Policy.Preventive), 10)
	b = strconv.AppendInt(append(b, " slack="...), int64(cfg.Policy.SlackTRC), 10)
	return strconv.AppendInt(append(b, " nrh="...), int64(cfg.Policy.NRH), 10)
}

// appendHorizon renders a sim-cell key's warmup and measure horizons.
func appendHorizon(b []byte, warmup, measure int) []byte {
	b = strconv.AppendInt(append(b, " warm="...), int64(warmup), 10)
	return strconv.AppendInt(append(b, " meas="...), int64(measure), 10)
}

// appendSimWorkload renders the key fields after the horizons; see
// appendSimShape.
func appendSimWorkload(b []byte, cfg Config, wl string) []byte {
	b = append(append(b, " wl="...), wl...)
	if cfg.Policy.Mitigation != "" {
		// Suffix only mitigation keys, so every pre-mitigation store
		// entry stays warm.
		b = append(append(b, " mit="...), cfg.Policy.Mitigation...)
		b = strconv.AppendInt(append(b, " mp="...), int64(cfg.Policy.MitigationParam), 10)
	}
	return b
}

// appendForensicsSuffix marks forensics cells and trajectories.
// Forensics never perturbs the simulated machine, but it adds a summary
// to the cell payload and its ledger to every checkpoint, so plain and
// forensics cells must share neither a store entry nor a checkpoint.
// Only forensics keys carry the suffix, so every existing plain-cell
// store entry stays warm.
func appendForensicsSuffix(b []byte, fx ForensicsOptions) []byte {
	if !fx.Enabled {
		return b
	}
	return strconv.AppendBool(append(b, " fx=1 fxrec="...), fx.Recorder)
}

// simCellKey names a full-system simulation cell: every input NewSystem
// and a run consume — appendSimShape's and appendSimWorkload's fields, the
// warmup and measure horizons — plus the forensics mode. wl is the
// mix's rendered identity (mixIdentity.wl).
func simCellKey(cfg Config, wl string, warmup, measure int) string {
	return string(appendSimCellKey(make([]byte, 0, 160+len(wl)), cfg, wl, warmup, measure))
}

// appendSimCellKey appends simCellKey's bytes to b.
func appendSimCellKey(b []byte, cfg Config, wl string, warmup, measure int) []byte {
	b = appendHorizon(appendSimShape(append(b, "sim/v2"...), cfg), warmup, measure)
	return appendForensicsSuffix(appendSimWorkload(b, cfg, wl), cfg.Forensics)
}

// appendTrajectory appends a trajectory's fields behind tag: the sim
// cell key's fields without the horizons (see trajectoryKey).
func appendTrajectory(b []byte, tag string, cfg Config, wl string) []byte {
	b = appendSimShape(append(b, tag...), cfg)
	return appendForensicsSuffix(appendSimWorkload(b, cfg, wl), cfg.Forensics)
}

// simCell builds the cell that simulates one (config, policy, mix)
// point through runSimCell on lab's checkpoint policy. wl is mix's
// rendered identity.
func simCell(lab *Engine, cfg Config, mix workload.SourceMix, wl string, warmup, measure int) engine.Cell[CellResult] {
	return engine.Cell[CellResult]{
		Key: simCellKey(cfg, wl, warmup, measure),
		Run: func(ctx context.Context) (CellResult, error) {
			return runSimCell(ctx, lab, cfg, mix, wl, warmup, measure)
		},
	}
}

// runSimCell simulates one sim cell: a machine resumes from the longest
// checkpoint at or below the cell's total horizon, marks the warmup
// boundary (or, resuming past it, loads the mark from the checkpoint
// stored there), and runs to the total, writing checkpoints as it
// advances so a warm store answers "same trajectory, longer run" by
// simulating only the delta. The row is bit-identical to a cold
// straight-through run at any resume point and any checkpoint cadence:
// the machine's trajectory is deterministic, and measured-phase outputs
// are differences of cumulative counters (see System.resultSince), so
// they cannot depend on where the run started. wl is mix's rendered
// identity.
func runSimCell(ctx context.Context, lab *Engine, cfg Config, mix workload.SourceMix, wl string, warmup, measure int) (CellResult, error) {
	ck := checkpointer{snaps: lab.snaps, interval: lab.snapInterval, key: trajectoryKey(cfg, wl)}
	var sys *System
	var mark runMark
	ck.resumeLongest(ctx, warmup+measure, func(t int, data []byte) bool {
		s, depth, err := ck.restoreChain(cfg, mix, t, data)
		if err != nil || s.Ticks() != t {
			return false
		}
		// A candidate past the warmup boundary is usable only with the
		// mark recovered from the checkpoint stored there.
		if warmup < t {
			m, ok := ck.loadMark(cfg.Cores, warmup)
			if !ok {
				return false
			}
			mark = m
		}
		sys = s
		ck.lastTick, ck.depth = t, depth
		return true
	})
	if sys == nil {
		var err error
		if sys, err = NewSystem(cfg, mix); err != nil {
			return CellResult{}, err
		}
	}
	if sys.Ticks() <= warmup {
		if err := ck.runTo(ctx, sys, warmup); err != nil {
			return CellResult{}, err
		}
		mark = sys.mark()
		// Checkpoint the warmup boundary even off the interval grid:
		// future runs resuming past it read the mark's counters from
		// exactly this checkpoint's header.
		ck.save(ctx, sys)
	}
	if err := ck.runTo(ctx, sys, warmup+measure); err != nil {
		return CellResult{}, err
	}
	ck.save(ctx, sys)
	out := sys.resultSince(mark, measure)
	lab.sim.observe(out)
	return out, nil
}

// checkpointer writes and resumes one trajectory's checkpoints.
type checkpointer struct {
	snaps    *engine.SnapStore
	interval int
	key      string

	// Delta-chain epoch: the tick of the last checkpoint this run stored
	// or resumed from (0 = none; deltas diff against it) and how many
	// delta links already sit between it and its full base.
	lastTick int
	depth    int
}

func (ck *checkpointer) enabled() bool { return ck.snaps != nil && ck.interval > 0 }

// resumeLongest scans the trajectory's stored checkpoints descending for
// the longest one at or below horizon that take accepts (restores and
// validates); rejected candidates are skipped, so every failure mode is
// a clean miss, never an error. Exactly one hit (a take accepted, also
// reported through engine.MarkResumed) or one miss is tallied per
// resume attempt, regardless of how many candidates were tried, with
// the eviction charge of the ghost read alongside the candidates.
func (ck *checkpointer) resumeLongest(ctx context.Context, horizon int, take func(tick int, data []byte) bool) bool {
	if !ck.enabled() {
		return false
	}
	sp := telemetry.StartSpan(ctx, "checkpoint-lookup", ck.key)
	ticks, ghost := ck.snaps.Candidates(ck.key, horizon)
	for i := len(ticks) - 1; i >= 0; i-- {
		t := ticks[i]
		data, ok := ck.snaps.Load(ck.key, t)
		if !ok {
			continue
		}
		if take(t, data) {
			ck.snaps.NoteResume(t, ghost)
			engine.MarkResumed(ctx, t)
			sp.SetAttr("hit", true)
			sp.SetAttr("tick", t)
			sp.End()
			return true
		}
	}
	ck.snaps.NoteResume(0, ghost)
	sp.SetAttr("hit", false)
	sp.End()
	return false
}

// restoreChain restores the checkpoint stored at tick, following delta
// links down to their full base and replaying them ascending. It
// returns the restored machine and the chain length (0 for a full
// snapshot) — the caller seeds its delta epoch from that, so new deltas
// extend the restored chain instead of restarting its depth count.
func (ck *checkpointer) restoreChain(cfg Config, mix workload.SourceMix, tick int, data []byte) (*System, int, error) {
	var chain [][]byte
	want := tick
	for hasMagic(data, deltaMagic) {
		if len(chain) == maxDeltaChain {
			return nil, 0, fmt.Errorf("sim: delta chain at tick %d exceeds %d links", tick, maxDeltaChain)
		}
		key, t, baseTick, _, err := readDeltaHeader(data)
		if err != nil {
			return nil, 0, err
		}
		if key != ck.key {
			return nil, 0, fmt.Errorf("sim: delta checkpoint carries a foreign trajectory key")
		}
		if t != want {
			return nil, 0, fmt.Errorf("sim: delta checkpoint labeled tick %d, indexed at %d", t, want)
		}
		chain = append(chain, data)
		next, ok := ck.snaps.Load(ck.key, baseTick)
		if !ok {
			return nil, 0, fmt.Errorf("sim: delta base at tick %d missing", baseTick)
		}
		data, want = next, baseTick
	}
	sys, err := RestoreSystem(cfg, mix, data)
	if err != nil {
		return nil, 0, err
	}
	if sys.Ticks() != want {
		return nil, 0, fmt.Errorf("sim: base snapshot at tick %d, indexed at %d", sys.Ticks(), want)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		if err := applySystemDelta(sys, chain[i]); err != nil {
			return nil, 0, err
		}
	}
	return sys, len(chain), nil
}

// loadMark obtains the cumulative counters at the warmup boundary
// straight from the header of the checkpoint stored there. A zero warmup
// needs no checkpoint.
func (ck *checkpointer) loadMark(cores, warmup int) (runMark, bool) {
	if warmup == 0 {
		return zeroMark(cores), true
	}
	mdata, ok := ck.snaps.Load(ck.key, warmup)
	if !ok {
		return runMark{}, false
	}
	key, mtick, m, err := readSnapshotMark(mdata, cores)
	if err != nil || key != ck.key || mtick != warmup {
		return runMark{}, false
	}
	return m, true
}

// runTo advances sys to the target tick, checkpointing every interval
// boundary it crosses. Boundaries are absolute tick multiples, so runs
// with different warmup/measure splits of one trajectory land their
// checkpoints on a shared grid.
func (ck *checkpointer) runTo(ctx context.Context, sys *System, target int) error {
	if sys.Ticks() >= target {
		return nil
	}
	sp := telemetry.StartSpan(ctx, "simulate", ck.key)
	sp.SetAttr("from", sys.Ticks())
	sp.SetAttr("to", target)
	defer sp.End()
	before := sys.Ticks()
	defer func() { engine.MarkSimulated(ctx, sys.Ticks()-before) }()
	if !ck.enabled() {
		return sys.RunTo(ctx, target)
	}
	for sys.Ticks() < target {
		next := target
		if b := (sys.Ticks()/ck.interval + 1) * ck.interval; b < next {
			next = b
		}
		if err := sys.RunTo(ctx, next); err != nil {
			return err
		}
		if next%ck.interval == 0 {
			ck.save(ctx, sys)
		}
	}
	return nil
}

// save checkpoints sys's current state, best-effort: an encode failure
// (a non-checkpointable custom stream) or store failure only means the
// next run starts colder. When a prior checkpoint anchors this run, save
// emits a differential checkpoint chained to it; the chain is bounded,
// so every maxDeltaChain-th save (and any save a delta path fails on) is
// a full snapshot. The checkpointer owns the touch epoch: it calls
// ResetTouchedLines exactly when a checkpoint lands, so a skipped or
// failed save leaves the touched set accumulating toward the next
// successful one.
func (ck *checkpointer) save(ctx context.Context, sys *System) {
	if !ck.enabled() || sys.Ticks() == 0 {
		return
	}
	tick := sys.Ticks()
	if ck.snaps.Has(ck.key, tick) {
		return
	}
	sp := telemetry.StartSpan(ctx, "checkpoint-save", ck.key)
	sp.SetAttr("tick", tick)
	defer sp.End()
	if ck.lastTick > 0 && ck.lastTick < tick && ck.depth < maxDeltaChain {
		data, err := sys.SnapshotDelta(ck.lastTick, ck.depth+1)
		if err == nil && ck.snaps.SaveDelta(ck.key, tick, ck.lastTick, data) == nil {
			sp.SetAttr("delta", true)
			ck.lastTick, ck.depth = tick, ck.depth+1
			sys.ResetTouchedLines()
			return
		}
		// Fall through: any delta failure (encode, or the store cannot
		// hold the delta without evicting its base chain) degrades to a
		// full snapshot.
	}
	data, err := sys.Snapshot()
	if err != nil {
		return
	}
	if ck.snaps.Save(ck.key, tick, data) != nil {
		return
	}
	ck.lastTick, ck.depth = tick, 0
	sys.ResetTouchedLines()
}

// runAloneCell computes one alone-IPC reference: a fresh reference
// machine runs from tick zero to the horizon and reports the cumulative
// IPC. Alone cells never checkpoint: a single-core reference simulates
// ticks about as fast as a checkpoint restores, so a resumed horizon
// extension would save almost nothing over re-simulating, while the
// engine's cache and the result store still answer exact repeats. key
// is the cell's key, the simulate span's scope.
func runAloneCell(ctx context.Context, key string, src workload.Source, seed uint64, ticks int) (CellResult, error) {
	a := newAloneRun(src, seed)
	sp := telemetry.StartSpan(ctx, "simulate", key)
	sp.SetAttr("from", 0)
	sp.SetAttr("to", ticks)
	err := a.RunTo(ctx, ticks)
	engine.MarkSimulated(ctx, a.tick)
	sp.End()
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{Alone: a.ipc()}, nil
}

// aloneCellKey names an alone-IPC reference cell: the source's Key,
// the seed and the horizon.
func aloneCellKey(srcKey string, seed uint64, ticks int) string {
	return string(appendAloneCellKey(make([]byte, 0, 64+len(srcKey)), srcKey, seed, ticks))
}

// appendAloneCellKey appends aloneCellKey's bytes to b.
func appendAloneCellKey(b []byte, srcKey string, seed uint64, ticks int) []byte {
	b = append(append(b, "alone/v2 wl="...), srcKey...)
	b = strconv.AppendUint(append(b, " seed="...), seed, 10)
	return strconv.AppendInt(append(b, " ticks="...), int64(ticks), 10)
}

// aloneCell builds the cell that computes one workload's alone-IPC
// reference for weighted speedup through runAloneCell. srcKey is src's
// rendered Key.
func aloneCell(src workload.Source, srcKey string, seed uint64, ticks int) engine.Cell[CellResult] {
	key := aloneCellKey(srcKey, seed, ticks)
	return engine.Cell[CellResult]{
		Key: key,
		Run: func(ctx context.Context) (CellResult, error) {
			return runAloneCell(ctx, key, src, seed, ticks)
		},
	}
}
