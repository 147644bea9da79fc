package main

import (
	"fmt"
	"sort"

	"hira/internal/service"
	"hira/internal/sim"
	"hira/internal/workload"
)

// Workload sizing. Every workload runs 8-core mixes, the paper's system.
const (
	benchCores = 8
	benchMixes = 2
	// snapInterval is hira-server's default checkpoint interval.
	snapInterval = 10000
	// benchParallelism is the engine worker bound: this host class has
	// two CPUs, and the sweeps' figures are bit-identical at any bound.
	benchParallelism = 2
)

// inputs is everything a workload hands the program, derived from the
// benchmark seed alone: the program never sees the seed itself, only
// the generated mixes and the sweep seed inside its options.
type inputs struct {
	// progSeed is the sweep seed passed in sim.Options / SimSpec; it
	// seeds the cores' synthetic streams.
	progSeed uint64
	names    [][]string // benchmark name per core, per mix
	mixes    []workload.SourceMix
}

// attackSeed is the attack sweep's seed. AttackSweep draws the
// attacker's benign co-runners from it itself, and which co-runners it
// draws moves the sweep's host time by up to 2x (0.46-0.90 s for the
// 60k-tick grid over 24 seeds on a 2-CPU host), far more than any bound
// a regression check could use. So the seed is fixed: the default of
// hira-sim and hira-server.
const attackSeed = 1

// benchPrograms is the fixed multiset of builtin SPEC CPU2006 profiles
// the mixes are dealt from: benchCores*benchMixes programs at evenly
// spaced ranks of memory intensity (MPKI), most intensive first.
func benchPrograms() []workload.Profile {
	ps := workload.SPEC2006Profiles()
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].MPKI > ps[j].MPKI })
	n := benchCores * benchMixes
	out := make([]workload.Profile, n)
	for i := range out {
		out[i] = ps[i*(len(ps)-1)/(n-1)]
	}
	return out
}

// splitmix is the SplitMix64 step, the generator behind every draw.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// makeInputs derives a workload's inputs from the benchmark seed.
//
// Which programs share a mix is fixed: benchPrograms are dealt in rank
// order, mix m taking every benchMixes-th program from rank m, so both
// mixes span the whole intensity range. The seed shuffles each mix's
// core order and draws the sweep seed, which seeds every core's access
// stream. Letting the seed choose the programs as well makes host time
// a property of the draw: a mix's cost depends nonlinearly on how many
// memory-bound programs it holds (a saturated mix is busy every tick),
// and draws moved a sweep's time by 8-25% from seed to seed.
func makeInputs(seed uint64) (inputs, error) {
	rng := splitmix(seed ^ 0x68697261) // "hira"
	next := func() uint64 {
		rng = splitmix(rng)
		return rng
	}
	in := inputs{progSeed: next()%1_000_000 + 1}
	progs := benchPrograms()
	in.names = make([][]string, benchMixes)
	for i, p := range progs {
		in.names[i%benchMixes] = append(in.names[i%benchMixes], p.Name)
	}
	for _, names := range in.names {
		for i := len(names) - 1; i > 0; i-- {
			j := int(next() % uint64(i+1))
			names[i], names[j] = names[j], names[i]
		}
	}
	ws := service.WorkloadsSpec{Mixes: in.names}
	mixes, err := ws.Resolve("")
	if err != nil {
		return in, fmt.Errorf("resolving generated mixes: %w", err)
	}
	in.mixes = mixes
	return in, nil
}

// sweepOptions sizes sweep-cold: hira-sim's default horizons, the
// seed's mixes, no result store and no checkpoints.
func (in inputs) sweepOptions() sim.Options {
	return sim.Options{Cores: benchCores, Warmup: 30000, Measure: 120000, Seed: in.progSeed, Mixes: in.mixes}
}

// Grids of the sweeps: three points of each paper axis.
var (
	fig9Caps    = []int{8, 32, 128}
	fig12NRHs   = []int{64, 256, 1024}
	attackNRHs  = []int{64, 128}
	attackKinds = sim.AttackKinds()
)

// attackOptions sizes one horizon of attack-extend. The base horizon
// is 60k ticks; the extension doubles it.
func (in inputs) attackOptions(extended bool) sim.Options {
	measure := 45000
	if extended {
		measure = 105000
	}
	return sim.Options{Cores: benchCores, Warmup: 15000, Measure: measure, Seed: attackSeed}
}

// serverSpec is server-session's Fig. 9 job; extended doubles the
// measured horizon, so the server resumes it from checkpoints.
func (in inputs) serverSpec(extended bool) service.JobSpec {
	measure := 30000
	if extended {
		measure = 60000
	}
	return service.JobSpec{
		Kind:       service.KindFig9,
		Capacities: fig9Caps,
		Sim:        &service.SimSpec{Cores: benchCores, Warmup: 10000, Measure: measure, Seed: in.progSeed},
		Workloads:  &service.WorkloadsSpec{Mixes: in.names},
	}
}

// serverOptions is the in-process equivalent of serverSpec, the oracle
// the HTTP payload is compared against.
func (in inputs) serverOptions(extended bool) sim.Options {
	spec := in.serverSpec(extended)
	return sim.Options{
		Cores: spec.Sim.Cores, Warmup: spec.Sim.Warmup, Measure: spec.Sim.Measure,
		Seed: spec.Sim.Seed, Mixes: in.mixes, Parallelism: benchParallelism,
	}
}
