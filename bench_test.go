// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations over HiRA-MC's two design knobs (HiRA-N's
// tRefSlack and the SPT's pairable-subarray coverage).
//
// Each benchmark regenerates its experiment at a reduced, laptop-scale
// size and reports the experiment's headline quantity through
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as a smoke
// reproduction; the cmd/ binaries run the same experiments at larger
// scales (README.md, "Scaling toward paper size"). README.md's
// "Performance" section describes the rungs CI records in
// BENCH_prN.json.
package hira_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"hira"
)

// quickSim keeps per-iteration simulation cost low for benchmarks.
func quickSim() hira.SimOptions {
	return hira.SimOptions{Workloads: 2, Measure: 40000, Warmup: 10000, Seed: 1}
}

// BenchmarkLatencyTwoRowRefresh regenerates the §3/§4.2 latency claim:
// HiRA refreshes two rows in 38ns instead of 78.25ns (51.4% less).
func BenchmarkLatencyTwoRowRefresh(b *testing.B) {
	var savings float64
	for i := 0; i < b.N; i++ {
		savings = hira.PairLatencySavings()
	}
	b.ReportMetric(100*savings, "%savings")
}

// BenchmarkTable1Modules regenerates one row of Table 1/Table 4: module
// characterization (coverage + normalized NRH) on module C0.
func BenchmarkTable1Modules(b *testing.B) {
	m := hira.Modules()[4]
	opts := hira.CharacterizationOptions{RegionSize: 512, NRHVictims: 8}
	var res hira.ModuleResult
	for i := 0; i < b.N; i++ {
		res = hira.CharacterizeModule(m, opts)
	}
	b.ReportMetric(100*res.Coverage.Mean, "%coverage")
	b.ReportMetric(res.NormNRH.Mean, "normNRH")
}

// BenchmarkFig4Coverage regenerates Fig. 4's central cell: the coverage
// distribution sweep over the (t1, t2) grid.
func BenchmarkFig4Coverage(b *testing.B) {
	m := hira.Modules()[4]
	var res []hira.CoverageResult
	for i := 0; i < b.N; i++ {
		res = hira.CoverageSweep(m, 8, 96)
	}
	// Index 5 is (t1=3ns, t2=3ns), the paper's operating point.
	b.ReportMetric(100*res[5].Summary.Mean, "%cov@3ns")
}

// BenchmarkFig5Threshold regenerates Fig. 5: RowHammer thresholds with
// and without HiRA's mid-hammer refresh.
func BenchmarkFig5Threshold(b *testing.B) {
	m := hira.Modules()[4]
	var s hira.NRHStudy
	for i := 0; i < b.N; i++ {
		s = hira.VerifySecondActivation(m, 8)
	}
	b.ReportMetric(s.Normalized.Mean, "normNRH")
	b.ReportMetric(s.Without.Mean, "absNRH")
}

// BenchmarkFig6Banks regenerates Fig. 6: per-bank normalized thresholds.
func BenchmarkFig6Banks(b *testing.B) {
	m := hira.Modules()[0]
	var banks []hira.BankResult
	for i := 0; i < b.N; i++ {
		banks = hira.BankVariation(m, 2)
	}
	lo, hi := banks[0].Normalized.Mean, banks[0].Normalized.Mean
	for _, bk := range banks {
		if bk.Normalized.Mean < lo {
			lo = bk.Normalized.Mean
		}
		if bk.Normalized.Mean > hi {
			hi = bk.Normalized.Mean
		}
	}
	b.ReportMetric(lo, "minBank")
	b.ReportMetric(hi, "maxBank")
}

// BenchmarkTable2Area regenerates Table 2: HiRA-MC's area and query
// latency.
func BenchmarkTable2Area(b *testing.B) {
	var r hira.AreaReport
	for i := 0; i < b.N; i++ {
		r = hira.Area()
	}
	b.ReportMetric(r.TotalAreaMM2*1000, "mm2*1e-3")
	b.ReportMetric(r.QueryLatencyNS, "query-ns")
}

// runFigure runs spec on a one-sweep engine, failing b on error.
func runFigure(b *testing.B, opts hira.SimOptions, spec hira.FigureSpec) *hira.FigureResult {
	b.Helper()
	res, err := hira.RunFigure(context.Background(), opts, spec)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig9Periodic regenerates Fig. 9's endpoints: periodic-refresh
// performance at 8Gb and 128Gb.
func BenchmarkFig9Periodic(b *testing.B) {
	var res *hira.FigureResult
	for i := 0; i < b.N; i++ {
		res = runFigure(b, quickSim(), hira.FigureSpec{Kind: "fig9", Capacities: []int{8, 128}})
	}
	hi := res.Fig9[1]
	b.ReportMetric(hi.NormNoRefresh["Baseline"], "base/noref@128Gb")
	b.ReportMetric(hi.NormBaseline["HiRA-2"], "hira2/base@128Gb")
}

// BenchmarkFig9PeriodicForensics is BenchmarkFig9Periodic with the
// RowHammer forensics ledger attached to every cell: its ns/op against
// the plain run is the sweep-level forensics overhead (the figures
// themselves are bit-identical either way), and the headline metrics
// must match BenchmarkFig9Periodic's exactly.
func BenchmarkFig9PeriodicForensics(b *testing.B) {
	opts := quickSim()
	opts.Forensics = true
	var res *hira.FigureResult
	for i := 0; i < b.N; i++ {
		res = runFigure(b, opts, hira.FigureSpec{Kind: "fig9", Capacities: []int{8, 128}})
	}
	hi := res.Fig9[1]
	b.ReportMetric(hi.NormNoRefresh["Baseline"], "base/noref@128Gb")
	b.ReportMetric(hi.NormBaseline["HiRA-2"], "hira2/base@128Gb")
	fx := hi.Forensics["HiRA-2"]
	if fx == nil {
		b.Fatal("no forensics on the 128Gb HiRA-2 row")
	}
	b.ReportMetric(float64(fx.MaxInterrefACTs), "max-interref-acts")
}

// BenchmarkEngineFig9Parallel measures the experiment engine's parallel
// speedup on a Fig. 9-shaped weighted-speedup sweep: a serial
// (Parallelism 1) reference is timed once, the benchmark loop runs the
// same sweep on a full worker pool, and the ratio is reported as speedup
// plus per-core parallel efficiency. Results are bit-identical between
// the two (see internal/engine's TestEngineDeterminism); this tracks
// only the wall-clock win.
var engineFig9Serial struct {
	sync.Once
	dur time.Duration
	err error
}

func BenchmarkEngineFig9Parallel(b *testing.B) {
	spec := hira.FigureSpec{Kind: "fig9", Capacities: []int{8, 128}}
	workers := runtime.GOMAXPROCS(0)
	par := quickSim()
	par.Parallelism = workers

	// The serial reference is timed once per test binary; the calibration
	// re-invocations the benchmark runner makes reuse it.
	engineFig9Serial.Do(func() {
		serial := quickSim()
		serial.Parallelism = 1
		start := time.Now()
		_, engineFig9Serial.err = hira.RunFigure(context.Background(), serial, spec)
		engineFig9Serial.dur = time.Since(start)
	})
	if engineFig9Serial.err != nil {
		b.Fatal(engineFig9Serial.err)
	}
	serialDur := engineFig9Serial.dur

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hira.RunFigure(context.Background(), par, spec); err != nil {
			b.Fatal(err)
		}
	}
	parDur := b.Elapsed() / time.Duration(b.N)
	speedup := serialDur.Seconds() / parDur.Seconds()
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(speedup/float64(workers), "efficiency")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkResumeExtend measures the resumable-cell win: a sweep is run
// to N ticks cold, then extended to 2N on the warm checkpoint store, and
// that extension is compared against running the 2N sweep cold. With a
// checkpoint at N, the extension simulates only the ~N-tick delta per
// cell, so the speedup approaches 2x (alone-IPC reference cells are
// horizon-keyed and rerun in both, which is the gap to the ideal).
func BenchmarkResumeExtend(b *testing.B) {
	ctx := context.Background()
	base := hira.DefaultSystemConfig()
	policies := []hira.RefreshPolicy{hira.BaselinePolicy(), hira.HiRAPeriodicPolicy(2)}
	short := hira.SimOptions{Workloads: 2, Cores: 8, Warmup: 25000, Measure: 275000, Seed: 1}
	long := short
	long.Measure = 2*short.Measure + short.Warmup // extend total N -> 2N
	const interval = 100000

	var speedup, resumedFrac float64
	for i := 0; i < b.N; i++ {
		// Cold 2N reference on a fresh engine.
		coldEng := hira.NewSimEngine(hira.SimEngineConfig{SnapInterval: interval})
		start := time.Now()
		if _, err := coldEng.RunPolicies(ctx, base, policies, long); err != nil {
			b.Fatal(err)
		}
		coldDur := time.Since(start)

		// Warm path: run N, then extend to 2N on the same engine.
		warmEng := hira.NewSimEngine(hira.SimEngineConfig{SnapInterval: interval})
		if _, err := warmEng.RunPolicies(ctx, base, policies, short); err != nil {
			b.Fatal(err)
		}
		var stats hira.EngineStats
		extOpts := long
		extOpts.Stats = &stats
		start = time.Now()
		if _, err := warmEng.RunPolicies(ctx, base, policies, extOpts); err != nil {
			b.Fatal(err)
		}
		warmDur := time.Since(start)

		speedup = coldDur.Seconds() / warmDur.Seconds()
		if stats.Simulated > 0 {
			resumedFrac = float64(stats.Resumed) / float64(stats.Simulated)
		}
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(resumedFrac, "resumed/simulated")
}

// BenchmarkResumeExtendAttack is BenchmarkResumeExtend for the attack
// grid: every attacker preset x NRH 64/128 under Baseline, PARA,
// Graphene and RFM with the forensics ledger, run to N = 60k ticks, then
// extended to 2N on the warm checkpoint store and compared against the
// 2N grid run cold. The zoo trackers, the ledger and the attacker
// streams all ride in the checkpoints, so every extension sim cell
// resumes; the alone-IPC references (one per attacker plus the 7 shared
// benign co-runners) never checkpoint and re-simulate, so
// resumed/simulated = 40/52 ≈ 0.77.
func BenchmarkResumeExtendAttack(b *testing.B) {
	ctx := context.Background()
	short := hira.SimOptions{Cores: 8, Warmup: 15000, Measure: 45000, Seed: 1}
	long := short
	long.Measure = 2*short.Measure + short.Warmup // extend total N -> 2N
	const interval = 10000

	var speedup, resumedFrac float64
	for i := 0; i < b.N; i++ {
		coldEng := hira.NewSimEngine(hira.SimEngineConfig{SnapInterval: interval})
		start := time.Now()
		if _, err := coldEng.AttackSweep(ctx, long, nil, nil); err != nil {
			b.Fatal(err)
		}
		coldDur := time.Since(start)

		warmEng := hira.NewSimEngine(hira.SimEngineConfig{SnapInterval: interval})
		if _, err := warmEng.AttackSweep(ctx, short, nil, nil); err != nil {
			b.Fatal(err)
		}
		var stats hira.EngineStats
		extOpts := long
		extOpts.Stats = &stats
		start = time.Now()
		if _, err := warmEng.AttackSweep(ctx, extOpts, nil, nil); err != nil {
			b.Fatal(err)
		}
		warmDur := time.Since(start)

		speedup = coldDur.Seconds() / warmDur.Seconds()
		if stats.Simulated > 0 {
			resumedFrac = float64(stats.Resumed) / float64(stats.Simulated)
		}
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(resumedFrac, "resumed/simulated")
}

// BenchmarkWarmFigure measures the warm rung of the benchmark ladder: a
// Fig. 9 (capacities 8/32/128) plus Fig. 12 (NRH 64/256/1024) request
// pair on an engine that already holds every cell, so each op is pure
// request overhead — cell and key derivation, cache lookups, score
// assembly — with no simulation. Tick counts only size the warm-up; the
// per-op cost depends on the grid shape (2 mixes x 8 cores).
func BenchmarkWarmFigure(b *testing.B) {
	ctx := context.Background()
	eng := hira.NewSimEngine(hira.SimEngineConfig{})
	opts := hira.SimOptions{Workloads: 2, Cores: 8, Warmup: 1000, Measure: 3000, Seed: 1}
	caps, nrhs := []int{8, 32, 128}, []int{64, 256, 1024}
	pair := func(opts hira.SimOptions) {
		if _, err := eng.Figure(ctx, "fig9", opts, nil, caps); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Figure(ctx, "fig12", opts, nil, nrhs); err != nil {
			b.Fatal(err)
		}
	}
	pair(opts)

	var stats hira.EngineStats
	warm := opts
	warm.Stats = &stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair(warm)
	}
	b.StopTimer()
	if stats.Simulated != 0 {
		b.Fatalf("warm requests simulated %d cells, want 0", stats.Simulated)
	}
	b.ReportMetric(float64(stats.Submitted)/float64(b.N), "cells/op")
}

// BenchmarkFig11Security regenerates Fig. 11: the full pth grid.
func BenchmarkFig11Security(b *testing.B) {
	var pts []hira.Fig11Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = hira.Fig11()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Pth, "pth@64")
	b.ReportMetric(pts[len(pts)-4].Pth, "pth@1024")
}

// BenchmarkFig12PARA regenerates Fig. 12's headline: HiRA's speedup over
// PARA at low RowHammer thresholds.
func BenchmarkFig12PARA(b *testing.B) {
	var res *hira.FigureResult
	for i := 0; i < b.N; i++ {
		res = runFigure(b, quickSim(), hira.FigureSpec{Kind: "fig12", NRHs: []int{64}})
	}
	b.ReportMetric(res.Fig12[0].NormBaseline["PARA"], "para/base@64")
	b.ReportMetric(res.Fig12[0].NormPARA["HiRA-4"], "hira4/para@64")
}

// BenchmarkFig13Channels regenerates Fig. 13 at 32Gb for 1 and 4 channels.
func BenchmarkFig13Channels(b *testing.B) {
	var res *hira.FigureResult
	for i := 0; i < b.N; i++ {
		res = runFigure(b, quickSim(), hira.FigureSpec{Kind: "fig13", Xs: []int{1, 4}, Capacities: []int{32}})
	}
	rows := res.Scale
	b.ReportMetric(rows[1].WS["HiRA-2"]/rows[0].WS["HiRA-2"], "hira2-4ch/1ch")
}

// BenchmarkFig14Ranks regenerates Fig. 14 at 32Gb for 1 and 2 ranks.
func BenchmarkFig14Ranks(b *testing.B) {
	var res *hira.FigureResult
	for i := 0; i < b.N; i++ {
		res = runFigure(b, quickSim(), hira.FigureSpec{Kind: "fig14", Xs: []int{1, 2}, Capacities: []int{32}})
	}
	rows := res.Scale
	b.ReportMetric(rows[1].WS["HiRA-2"]/rows[0].WS["HiRA-2"], "hira2-2rk/1rk")
}

// BenchmarkFig15ParaChannels regenerates Fig. 15 at NRH=256 for 1 and 4
// channels.
func BenchmarkFig15ParaChannels(b *testing.B) {
	var res *hira.FigureResult
	for i := 0; i < b.N; i++ {
		res = runFigure(b, quickSim(), hira.FigureSpec{Kind: "fig15", Xs: []int{1, 4}, NRHs: []int{256}})
	}
	rows := res.Scale
	b.ReportMetric(rows[1].WS["HiRA-4"]/rows[1].WS["PARA"], "hira4/para@4ch")
}

// BenchmarkFig16ParaRanks regenerates Fig. 16 at NRH=256 for 1 and 2
// ranks.
func BenchmarkFig16ParaRanks(b *testing.B) {
	var res *hira.FigureResult
	for i := 0; i < b.N; i++ {
		res = runFigure(b, quickSim(), hira.FigureSpec{Kind: "fig16", Xs: []int{1, 2}, NRHs: []int{256}})
	}
	rows := res.Scale
	b.ReportMetric(rows[1].WS["HiRA-4"]/rows[1].WS["PARA"], "hira4/para@2rk")
}

// BenchmarkAblationRefSlack sweeps tRefSlack (the HiRA-N knob) at 64Gb
// periodic refresh: the paper observes saturation beyond 2xtRC.
func BenchmarkAblationRefSlack(b *testing.B) {
	base := hira.DefaultSystemConfig()
	base.ChipCapacityGbit = 64
	policies := []hira.RefreshPolicy{
		hira.HiRAPeriodicPolicy(0), hira.HiRAPeriodicPolicy(2),
		hira.HiRAPeriodicPolicy(4), hira.HiRAPeriodicPolicy(8),
	}
	var scores []hira.PolicyScore
	var err error
	for i := 0; i < b.N; i++ {
		scores, err = hira.RunPolicies(context.Background(), base, policies, quickSim())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(scores[1].WS/scores[0].WS, "hira2/hira0")
	b.ReportMetric(scores[3].WS/scores[1].WS, "hira8/hira2")
}

// BenchmarkAblationCoverage sweeps the SPT pairable fraction: what HiRA
// would gain if chips exposed more isolated subarray pairs than the
// measured 32%.
func BenchmarkAblationCoverage(b *testing.B) {
	run := func(cov float64) float64 {
		base := hira.DefaultSystemConfig()
		base.ChipCapacityGbit = 64
		base.SPTCoverage = cov
		scores, err := hira.RunPolicies(context.Background(), base,
			[]hira.RefreshPolicy{hira.HiRAPeriodicPolicy(4)}, quickSim())
		if err != nil {
			b.Fatal(err)
		}
		return scores[0].WS
	}
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		lo, hi = run(0.10), run(0.60)
	}
	b.ReportMetric(hi/lo, "ws60%/ws10%")
}
