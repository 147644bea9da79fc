// Package hira is a from-scratch Go reproduction of "HiRA: Hidden Row
// Activation for Reducing Refresh Latency of Off-the-Shelf DRAM Chips"
// (Yağlıkçı et al., MICRO 2022).
//
// HiRA refreshes one DRAM row concurrently with refreshing or accessing
// another row of the same bank by issuing an engineered ACT-PRE-ACT
// command sequence with deliberately violated timings (t1 = t2 = 3 ns),
// exploiting subarrays whose charge-restoration circuitry is electrically
// isolated. The HiRA Memory Controller (HiRA-MC) schedules periodic and
// RowHammer-preventive refreshes through HiRA operations to hide their
// latency behind demand accesses and other refreshes.
//
// This package is the public facade over the full reproduction:
//
//   - Characterization (§4): virtual DDR4 chips with the electrical
//     preconditions HiRA depends on, the paper's Algorithms 1 and 2, and
//     the Table 1/4 module set — see Modules, CharacterizeModule,
//     CoverageSweep, VerifySecondActivation, BankVariation.
//   - Security analysis (§9.1): PARA's revisited probability-threshold
//     derivation — see SolvePARAThreshold, Fig11.
//   - Hardware cost (§6): the Table 2 area/latency model — see AreaReport.
//   - System-level evaluation (§7-§10): a cycle-level DDR4 simulator with
//     HiRA-MC — see RunFigure and RunPolicies. Every figure (Figs. 9, 12
//     and 13-16, and the attack×mitigation grid) is one entry of a
//     figure table (FigureKinds) declaring the grids it consumes with
//     their paper defaults, its policies, and its rows; RunFigure rejects
//     a grid the kind does not consume. Sweeps decompose into
//     deterministic, content-keyed cells and run on a parallel experiment
//     engine (internal/engine). The package-level RunFigure and
//     RunPolicies build a one-sweep engine whose worker pool
//     SimOptions.Parallelism sizes; a NewSimEngine built from a
//     SimEngineConfig runs the same calls as methods and adds what
//     outlives one sweep: ResultDir persists per-cell results across
//     runs, and SnapInterval checkpoints running simulations so a sweep
//     rerun with longer horizons resumes each simulation cell from its
//     stored machine state (bit-identically) instead of re-simulating it.
//
// Subpackages under internal/ hold the implementation; everything a
// downstream user needs is exported here or through the cmd/ binaries.
package hira

import (
	"hira/internal/areamodel"
	"hira/internal/charz"
	"hira/internal/chip"
	"hira/internal/dram"
	"hira/internal/metrics"
	"hira/internal/rowhammer"
	"hira/internal/sim"
	"hira/internal/softmc"
	"hira/internal/workload"
)

// Timing re-exports the DDR4 timing parameter set.
type Timing = dram.Timing

// DDR4Timing returns the paper's DDR4-2400 timing for a chip capacity in
// Gbit (tRFC follows Expression 1).
func DDR4Timing(capacityGbit int) Timing { return dram.DDR4_2400(capacityGbit) }

// PairLatencySavings returns the headline latency claim: the fractional
// reduction in back-to-back two-row refresh latency that HiRA achieves
// (38 ns vs 78.25 ns = 51.4%).
func PairLatencySavings() float64 { return dram.DDR4_2400(8).HiRAPairSavings() }

// Module is one virtual DRAM module under characterization (Table 1/4).
type Module = charz.Module

// Modules returns the seven working modules of Table 1/Table 4.
func Modules() []Module { return charz.TestedModules() }

// NonWorkingModules returns stand-ins for the manufacturers on which HiRA
// does not work (§12).
func NonWorkingModules() []Module { return charz.NonWorkingModules() }

// CharacterizationOptions sizes a characterization run.
type CharacterizationOptions = charz.Options

// ModuleResult is one row of Table 4.
type ModuleResult = charz.ModuleResult

// CharacterizeModule runs Algorithms 1 and 2 against a module's virtual
// chip and reports its HiRA coverage and normalized RowHammer threshold.
func CharacterizeModule(m Module, opts CharacterizationOptions) ModuleResult {
	return charz.CharacterizeModule(m, opts)
}

// CoverageResult is the coverage distribution at one (t1, t2) point.
type CoverageResult = charz.CoverageResult

// CoverageSweep regenerates Fig. 4 for a module: HiRA coverage across
// tested rows for every (t1, t2) in the paper's grid.
func CoverageSweep(m Module, rowAs, rowBs int) []CoverageResult {
	g := charz.CharzGeometry()
	h := softmc.NewHost(m.NewChip(g))
	tested := charz.TestedRows(g, 2048, 1)
	as := charz.SampleRows(tested, rowAs)
	bs := charz.SampleRows(tested, rowBs)
	return charz.CoverageSweep(h, 0, as, bs)
}

// NRHStudy is Fig. 5's summary: RowHammer thresholds with/without HiRA.
type NRHStudy = charz.NRHStudy

// VerifySecondActivation regenerates Fig. 5 for a module: measure
// RowHammer thresholds with and without a mid-hammer HiRA refresh on
// `victims` sampled rows.
func VerifySecondActivation(m Module, victims int) NRHStudy {
	g := charz.CharzGeometry()
	h := softmc.NewHost(m.NewChip(g))
	t := dram.FromNanoseconds(3)
	rows := charz.SampleRows(charz.InteriorRows(g, charz.TestedRows(g, 2048, 1)), victims)
	return charz.StudyNRH(charz.MeasureNRHRows(h, 0, rows, t, t))
}

// BankResult is one bank's normalized-threshold distribution (Fig. 6).
type BankResult = charz.BankResult

// BankVariation regenerates Fig. 6 for a module.
func BankVariation(m Module, victimsPerBank int) []BankResult {
	t := dram.FromNanoseconds(3)
	return charz.BankVariation(m, victimsPerBank, t, t)
}

// Summary re-exports the box-and-whiskers summary statistics.
type Summary = metrics.Summary

// SolvePARAThreshold solves PARA's probability threshold pth for a
// RowHammer threshold and a tRefSlack in units of tRC, targeting the
// 1e-15 consumer reliability level (§9.1, Expression 8).
func SolvePARAThreshold(nrh, slackTRC int) (float64, error) {
	return rowhammer.DefaultConfig().SolvePth(nrh, float64(slackTRC), rowhammer.ReliabilityTarget)
}

// Fig11Point is one point of the Fig. 11 security analysis.
type Fig11Point = rowhammer.Fig11Point

// Fig11 computes the full Fig. 11 grid: pth and the success probability
// of PARA-Legacy's configuration under the revisited model.
func Fig11() ([]Fig11Point, error) { return rowhammer.DefaultConfig().Fig11() }

// AreaReport is Table 2: HiRA-MC's per-rank area and access latency.
type AreaReport = areamodel.Report

// Area computes Table 2.
func Area() AreaReport { return areamodel.BuildReport() }

// System-level experiment re-exports (§7-§10).
type (
	// SimOptions sizes a performance sweep (workload count, measured
	// ticks, etc.) and carries its per-run hooks (Progress, Stats), plus
	// the worker-pool size (Parallelism) of the one-sweep engine the
	// package-level runners build. Result stores and checkpoints are
	// SimEngineConfig settings.
	SimOptions = sim.Options
	// EngineStats tallies how the experiment engine resolved a sweep's
	// cells: simulated vs served from the in-memory cache or the
	// ResultDir store. FigureResult.Stats carries a figure's tally, and
	// SimOptions.Stats accumulates it across calls.
	EngineStats = sim.EngineStats
	// SimCellResult is the persisted payload of one engine cell.
	SimCellResult = sim.CellResult
	// SimEngine is a shared experiment engine: sweeps run through one
	// SimEngine share the cell cache, the result store, the compute
	// bound, and in-flight computations across concurrent callers.
	SimEngine = sim.Engine
	// SimEngineConfig sizes a shared SimEngine.
	SimEngineConfig = sim.EngineConfig
	// FigureResult is the serializable envelope of one figure run — the
	// encoding shared by `hira-sim -json` and the experiment service.
	FigureResult = sim.FigureResult
	// FigureSpec names one figure run: a figure-table kind and its grids.
	FigureSpec = sim.FigureSpec
	// SystemConfig describes one simulated machine.
	SystemConfig = sim.Config
	// RefreshPolicy names one refresh configuration under test.
	RefreshPolicy = sim.RefreshPolicy
	// PolicyScore is a policy's average weighted speedup.
	PolicyScore = sim.PolicyScore
	// Fig9Row is one capacity point of Fig. 9.
	Fig9Row = sim.Fig9Row
	// Fig12Row is one RowHammer-threshold point of Fig. 12.
	Fig12Row = sim.Fig12Row
	// ScaleRow is one point of the §10 channel/rank sweeps.
	ScaleRow = sim.ScaleRow
	// AttackRow is one (attack, NRH) point of the attack×mitigation
	// sweep: weighted speedups plus per-policy efficacy forensics.
	AttackRow = sim.AttackRow
	// AttackSpec parameterizes a mapping-aware hammering workload.
	AttackSpec = workload.AttackSpec
	// Attack is the attacker workload source an AttackSpec builds.
	Attack = workload.Attack
	// ForensicsSummary is the per-policy RowHammer forensics report a
	// sweep row carries when SimOptions.Forensics is set: the activation
	// ledger's tallies, threshold-crossing counts, and (with
	// ForensicsRecorder) the flight recorder's command log.
	ForensicsSummary = sim.ForensicsSummary
)

// Policy constructors.
var (
	// NoRefreshPolicy is the ideal no-refresh upper bound.
	NoRefreshPolicy = sim.NoRefreshPolicy
	// BaselinePolicy is conventional rank-level REF.
	BaselinePolicy = sim.BaselinePolicy
	// HiRAPeriodicPolicy is HiRA-N for periodic refresh.
	HiRAPeriodicPolicy = sim.HiRAPeriodicPolicy
	// PARAPolicy is PARA without HiRA.
	PARAPolicy = sim.PARAPolicy
	// PARAHiRAPolicy is PARA with HiRA-N parallelization.
	PARAHiRAPolicy = sim.PARAHiRAPolicy
	// GraphenePolicy is the Graphene-style counter-table tracker.
	GraphenePolicy = sim.GraphenePolicy
	// RFMPolicy is DDR5 refresh-management-style activation pacing.
	RFMPolicy = sim.RFMPolicy
	// DefaultSystemConfig is Table 3's system.
	DefaultSystemConfig = sim.DefaultConfig
	// NewAttackWorkload builds a mapping-aware hammering Workload.
	NewAttackWorkload = workload.NewAttack
	// AttackKinds lists the attack sweep's builtin attacker presets.
	AttackKinds = sim.AttackKinds
)

// Experiment runners. RunFigure and RunPolicies take a context for
// cancellation and run on a fresh single-sweep engine; a NewSimEngine
// runs them as methods, sharing cells across calls and callers.
var (
	// NewSimEngine builds a shared experiment engine.
	NewSimEngine = sim.NewEngine
	// RunFigure runs one figure of the figure table and wraps the rows
	// in the serializable FigureResult envelope.
	RunFigure = sim.RunFigure
	// FigureKinds lists the figure table's kinds ("fig9" ... "fig16",
	// and "attack" for the attack×mitigation grid).
	FigureKinds = sim.FigureKinds
	// RunPolicies evaluates refresh policies on shared workload mixes.
	RunPolicies = sim.RunPolicies
)

// Workload re-exports: sweeps accept any workload source per core —
// builtin SPEC profiles, custom profiles, or recorded traces — via
// SimOptions.Mixes; sources carry a content identity so the experiment
// engine never aliases two different workloads.
type (
	// Workload is one pluggable workload source (content key, label,
	// seeded deterministic access stream).
	Workload = workload.Source
	// WorkloadProfile is a synthetic benchmark characterization; custom
	// profiles must pass Validate.
	WorkloadProfile = workload.Profile
	// WorkloadMix is one multiprogrammed workload: a source per core.
	WorkloadMix = workload.SourceMix
	// WorkloadTrace is a recorded access trace replayed deterministically;
	// its identity is the SHA-256 of its encoded bytes.
	WorkloadTrace = workload.Trace
	// WorkloadAccess is one access of a trace or generator stream.
	WorkloadAccess = workload.Access
)

// Workload constructors and helpers.
var (
	// SPECProfiles returns the builtin SPEC CPU2006 profile set.
	SPECProfiles = workload.SPEC2006Profiles
	// WorkloadByName returns a builtin benchmark profile.
	WorkloadByName = workload.ProfileByName
	// RecordTrace captures the first n accesses of a source's stream as
	// a replayable trace.
	RecordTrace = workload.Record
	// LoadTrace reads a trace file written by WriteTraceFile or
	// `hira-sim -record`.
	LoadTrace = workload.LoadTrace
	// WriteTraceFile encodes accesses into the versioned trace format.
	WriteTraceFile = workload.WriteTraceFile
	// RoundRobinWorkloadMixes deals sources round-robin into n mixes of
	// the given core count (the `hira-sim -trace` assignment rule).
	RoundRobinWorkloadMixes = workload.RoundRobinMixes
)

// NewVirtualChip builds a virtual DDR4 chip directly for custom
// experiments (see internal/chip for the electrical model).
func NewVirtualChip(m Module) *chip.Chip { return m.NewChip(charz.CharzGeometry()) }

// NewHost attaches a SoftMC-style command-level host to a chip.
func NewHost(c *chip.Chip) *softmc.Host { return softmc.NewHost(c) }
