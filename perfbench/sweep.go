package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"hira/internal/engine"
	"hira/internal/sim"
	"hira/internal/telemetry"
	"hira/internal/workload"
)

// warmPerRep is how many already-answered requests each repetition
// re-issues, so each repetition's p99 has twenty samples beyond it;
// server-session splits them across warmClients closed-loop clients.
const (
	warmPerRep  = 2000
	warmClients = 2
	// minReps is the fewest repetitions a phase runs, however long.
	minReps = 3
	// setupBatches is how many batches of set-ups an untraced
	// repetition times before it starts.
	setupBatches = 3
)

// request is one figure request a workload issues against an engine.
type request struct {
	label string
	run   func(ctx context.Context, e *sim.Engine) (*sim.FigureResult, error)
}

// sweepWorkload is an in-process sweep workload: a fresh engine per
// repetition, a cold request, a follow-up request on the same engine,
// then a closed loop re-issuing both (every cell already computed).
type sweepWorkload struct {
	engine     func() *sim.Engine
	cold, next request
	// checkNext validates the follow-up request's resolution tally.
	checkNext func(sim.EngineStats) error
	layers    layerTargets
}

// layerTargets are what a workload's layer microbenchmarks run on: the
// sim config and mix (codecMix, when set, replaces mix for the
// checkpoint codec) and the mixes whose sources' keys the workload
// derives.
type layerTargets struct {
	cfg           sim.Config
	mix, codecMix workload.SourceMix
	keyMixes      []workload.SourceMix
}

// sweepCold is the hira-sim default path: the Fig. 9 capacity grid and
// the Fig. 12 NRH grid on a fresh engine with no result store and no
// checkpoints, so nearly all host time is the busy tick.
func sweepCold(r *run) error {
	opts := r.in.sweepOptions()
	figure := func(kind string, grid []int) func(context.Context, *sim.Engine) (*sim.FigureResult, error) {
		return func(ctx context.Context, e *sim.Engine) (*sim.FigureResult, error) {
			return e.Figure(ctx, kind, opts, nil, grid)
		}
	}
	return runSweep(r, sweepWorkload{
		engine: func() *sim.Engine { return sim.NewEngine(sim.EngineConfig{Parallelism: benchParallelism}) },
		cold:   request{labelFig9, figure("fig9", fig9Caps)},
		next:   request{labelFig12, figure("fig12", fig12NRHs)},
		layers: fig9Layers(r.in),
	})
}

// fig9Layers are the layer targets of the Fig. 9 workloads: HiRA-2 at
// the grid's largest capacity, on the first mix.
func fig9Layers(in inputs) layerTargets {
	cfg := sim.DefaultConfig()
	cfg.ChipCapacityGbit = fig9Caps[len(fig9Caps)-1]
	cfg.Policy = sim.HiRAPeriodicPolicy(2)
	cfg.Seed = in.progSeed
	return layerTargets{cfg: cfg, mix: in.mixes[0], keyMixes: in.mixes}
}

// attackExtend runs the attack×mitigation grid with the forensics
// ledger at a 60k-tick horizon, then extends it to 120k ticks on the
// same engine with checkpoints at hira-server's default interval.
func attackExtend(r *run) error {
	attack := func(extended bool) func(context.Context, *sim.Engine) (*sim.FigureResult, error) {
		return func(ctx context.Context, e *sim.Engine) (*sim.FigureResult, error) {
			var st sim.EngineStats
			opts := r.in.attackOptions(extended)
			opts.Stats = &st
			rows, err := e.AttackSweep(ctx, opts, attackKinds, attackNRHs)
			if err != nil {
				return nil, err
			}
			return &sim.FigureResult{Kind: "attack", Attack: rows, Stats: st}, nil
		}
	}
	mix, benign, err := attackMixes(r.in)
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = sim.PARAPolicy(attackNRHs[0])
	cfg.Seed = attackSeed
	return runSweep(r, sweepWorkload{
		engine: func() *sim.Engine {
			return sim.NewEngine(sim.EngineConfig{Parallelism: benchParallelism, SnapInterval: snapInterval})
		},
		cold: request{labelAttackBase, attack(false)},
		next: request{labelAttackExt, attack(true)},
		checkNext: func(st sim.EngineStats) error {
			if st.Resumed == 0 {
				return fmt.Errorf("%w: attack extension resumed no cell from a checkpoint", errMismatch)
			}
			return nil
		},
		layers: layerTargets{cfg: cfg, mix: mix, codecMix: benign, keyMixes: []workload.SourceMix{mix}},
	})
}

// attackMixes returns the mix of the attack sweep's cells: the first
// builtin mix drawn from the attack seed (as AttackSweep draws it) with
// a double-sided attacker on core 0, and that benign mix itself.
func attackMixes(in inputs) (attack, benign workload.SourceMix, err error) {
	benign = workload.Mixes(1, benchCores, attackSeed)[0].Sources()
	org := sim.OrgFor(sim.DefaultConfig())
	atk, err := workload.NewAttack(workload.AttackSpec{
		Kind: workload.AttackDouble, Bank: 2, VictimRow: org.RowsPerBank() / 2,
	}, org)
	if err != nil {
		return attack, benign, err
	}
	srcs := append([]workload.Source{atk}, benign.Sources[1:]...)
	return workload.SourceMix{ID: 0, Sources: srcs}, benign, nil
}

// phase collects one measured phase's samples.
type phase struct {
	cold, next, sweep []float64 // seconds per repetition
	rss               []float64 // peak resident MB per repetition
	warmP50, warmP99  []float64 // per-repetition warm-request percentiles, ms
	warmN             int       // warm requests that succeeded
	engine            sim.EngineStats
	snaps             engine.SnapStats
	spanTotals        []map[string]time.Duration // engine trace span totals per repetition
	setups            []float64                  // seconds per set-up, one per timed batch
	reps              int
	mem               memDelta
}

// runSweep measures a sweep workload: untraced for the end-to-end
// metrics, or an untraced half and a traced half for the per-layer run.
func runSweep(r *run, w sweepWorkload) error {
	g := newGate(r.refs, r.seed)
	if !r.traced {
		setup := setupTimer{per: 1000, run: func() (time.Duration, error) {
			t0 := time.Now()
			if _, err := makeInputs(r.seed); err != nil {
				return 0, err
			}
			w.engine()
			return time.Since(t0), nil
		}}
		p, err := sweepPhase(r, w, g, r.budget, false, &setup)
		if err != nil {
			return err
		}
		reportEndToEnd(r, p)
		return nil
	}
	err := tracedRun(r, w.layers, func(budget time.Duration, traced bool) (*phase, error) {
		return sweepPhase(r, w, g, budget, traced, nil)
	})
	zeroService(r)
	return err
}

// tracedRun is a workload's per-layer run. Half the budget runs
// untraced, the baseline for the tracing overhead; the other half runs
// traced under a CPU profile; then the layer microbenchmarks run on
// targets. It reports every per-layer metric except the service ones.
func tracedRun(r *run, targets layerTargets, measure func(budget time.Duration, traced bool) (*phase, error)) error {
	plain, err := measure(r.budget/2, false)
	if err != nil {
		return err
	}
	r.spans = newSpanLog()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	traced, err := measure(r.budget/2, true)
	shares, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	reportTraced(r, plain, traced, shares)
	reportEngine(r, traced)
	if err := simLayers(r, targets); err != nil {
		return err
	}
	keyLayer(r, targets.keyMixes)
	r.spans.write(".bench_build/perfbench-spans", fmt.Sprintf("%s-seed%d.json", r.name, r.seed))
	return nil
}

// sweepPhase runs repetitions until the budget is spent (at least
// minReps). Traced phases attach an engine trace to every request and
// record benchmark spans around each call. A non-nil setup times its
// set-ups before every repetition.
func sweepPhase(r *run, w sweepWorkload, g *gate, budget time.Duration, traced bool, setup *setupTimer) (*phase, error) {
	p := &phase{}
	mem := readMem()
	start := time.Now()
	for p.reps < minReps || time.Since(start)+time.Since(start)/time.Duration(p.reps) <= budget {
		if err := setup.time(p); err != nil {
			return nil, err
		}
		// Each repetition starts from a collected heap returned to the
		// OS, so one repetition's garbage neither slows the next nor
		// counts in its peak memory.
		debug.FreeOSMemory()
		rss := startRSS()
		ctx := context.Background()
		var tr *telemetry.Trace
		if traced {
			tr = telemetry.NewTrace("rep", 0)
			ctx = telemetry.WithTrace(ctx, tr)
		}
		e := w.engine()
		p.reps++
		var durs [2]time.Duration
		var nextStats sim.EngineStats
		failed := false
		for i, req := range []request{w.cold, w.next} {
			sp := r.spans.start(req.label, -1)
			t0 := time.Now()
			res, err := req.run(ctx, e)
			durs[i] = time.Since(t0)
			r.spans.end(sp)
			if err != nil {
				r.tally.op(fmt.Errorf("%s: %w", req.label, err))
				failed = true
				break
			}
			r.tally.op(g.check(req.label, res))
			nextStats = res.Stats
		}
		if failed {
			rss.stopMB()
			continue
		}
		if w.checkNext != nil {
			r.tally.op(w.checkNext(nextStats))
		}
		p.cold = append(p.cold, seconds(durs[0]))
		p.next = append(p.next, seconds(durs[1]))
		p.sweep = append(p.sweep, seconds(durs[0]+durs[1]))
		// The warm loop starts from a collected heap, so where its
		// garbage collections fall does not depend on the cold phase's
		// garbage.
		runtime.GC()
		p.addWarm(warmLoop(ctx, r, e, g, []request{w.cold, w.next}))
		p.rss = append(p.rss, rss.stopMB())
		p.engine = e.Stats()
		p.snaps, _ = e.SnapshotStats()
		if tr != nil {
			p.spanTotals = append(p.spanTotals, spanTotals(tr.Snapshot()))
		}
	}
	p.mem = readMem().since(mem)
	return p, nil
}

// addWarm records one repetition's warm latencies (ms). Percentiles are
// taken per repetition and reported as medians over repetitions, so a
// burst of contention from outside the process, which slows every
// request for a moment, moves one repetition's p99 rather than the
// pooled tail of the whole run.
func (p *phase) addWarm(ms []float64) {
	if len(ms) == 0 {
		return
	}
	p.warmP50 = append(p.warmP50, quantile(ms, 0.50))
	p.warmP99 = append(p.warmP99, quantile(ms, 0.99))
	p.warmN += len(ms)
}

// warmLoop re-issues already-answered requests from one closed-loop
// caller and returns the CPU time each took, in ms. Each answer must
// match the figure computed cold and simulate nothing. One caller,
// unlike the server's two clients, models a program re-running figures
// in-process, and keeps the callers from contending with each other
// and with the garbage collector for the host's two CPUs, which made
// the tail of two in-process callers swing with the host's load.
//
// A request is timed in process CPU time, not wall time: a warm
// request takes 1-2 ms, and in busy periods the host stalls the VM's
// CPUs for a few ms often enough to land in more than 1% of such
// requests, so a wall-clock p99 measured the host (it doubled for
// minutes at a time while p50 held).
func warmLoop(ctx context.Context, r *run, e *sim.Engine, g *gate, reqs []request) []float64 {
	var lat []float64
	for i := 0; i < warmPerRep; i++ {
		req := reqs[i%len(reqs)]
		c0 := cpuTime()
		res, err := req.run(ctx, e)
		ms := millis(cpuTime() - c0)
		if err == nil && res.Stats.Simulated != 0 {
			err = fmt.Errorf("%w: warm %s simulated %d cells", errMismatch, req.label, res.Stats.Simulated)
		}
		if err == nil {
			err = g.check(req.label, res)
		}
		r.tally.op(err)
		if err == nil {
			lat = append(lat, ms)
		}
	}
	return lat
}

// spanTotals sums an engine trace's span durations by layer phase.
func spanTotals(v telemetry.View) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range v.Spans {
		name := s.Name
		if name == "store-read" || name == "store-write" {
			name = "store"
		}
		out[name] += time.Duration(s.DurNS)
	}
	return out
}

// memDelta is the runtime allocation and GC activity over a phase.
type memDelta struct {
	allocBytes uint64
	gcs        uint32
	pause      time.Duration
}

type memMark struct{ runtime.MemStats }

func readMem() memMark {
	var m memMark
	runtime.ReadMemStats(&m.MemStats)
	return m
}

func (m memMark) since(prev memMark) memDelta {
	return memDelta{
		allocBytes: m.TotalAlloc - prev.TotalAlloc,
		gcs:        m.NumGC - prev.NumGC,
		pause:      time.Duration(m.PauseTotalNs - prev.PauseTotalNs),
	}
}

// setupTimer times a workload's set-up in batches of per set-ups. run
// returns the time of the part that counts, so it can leave out its
// teardown. The batches are spread over the whole measured phase, a
// few before each repetition, so setup_s (their median) reflects the
// host over the whole run rather than over the fraction of a second
// one block of batches takes.
type setupTimer struct {
	per int
	run func() (time.Duration, error)
}

// time appends setupBatches per-set-up times, in seconds, to p.setups,
// after a discarded warm-up batch that faults in the heap pages the
// timed batches then reuse. A nil timer does nothing.
func (s *setupTimer) time(p *phase) error {
	if s == nil {
		return nil
	}
	runtime.GC()
	for b := -1; b < setupBatches; b++ {
		var total time.Duration
		for i := 0; i < s.per; i++ {
			d, err := s.run()
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			total += d
		}
		if b >= 0 {
			p.setups = append(p.setups, seconds(total)/float64(s.per))
		}
	}
	return nil
}

// cpuTime is the CPU time all of the process's threads have run, user
// plus system. The kernel takes it from the scheduler's run time,
// which leaves out time a hypervisor that reports steal time took the
// CPUs away, so unlike wall time it does not grow while the host
// stalls the VM.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
