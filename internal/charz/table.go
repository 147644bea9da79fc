package charz

import (
	"hira/internal/dram"
	"hira/internal/metrics"
	"hira/internal/softmc"
)

// Options sizes a characterization run. Zero values take the defaults
// noted on each field; the paper-scale values (2048-row regions, every row
// as RowA) are reachable by setting the fields explicitly.
type Options struct {
	// RegionSize is the size of each of the three tested row regions
	// (first/middle/last; paper: 2048). Default 2048.
	RegionSize int
	// RowAStride thins the RowA sample: coverage is measured for every
	// RowAStride-th tested row. Default 96.
	RowAStride int
	// RowBStride thins the RowB candidate set. Default 8.
	RowBStride int
	// NRHVictims is how many victim rows Algorithm 2 measures. Default 16.
	NRHVictims int
	// Bank selects the tested bank (paper: bank 0).
	Bank int
	// T1, T2 are the HiRA timings (default 3 ns each).
	T1, T2 dram.Time
}

func (o Options) withDefaults() Options {
	if o.RegionSize == 0 {
		o.RegionSize = 2048
	}
	if o.RowAStride == 0 {
		o.RowAStride = 96
	}
	if o.RowBStride == 0 {
		o.RowBStride = 8
	}
	if o.NRHVictims == 0 {
		o.NRHVictims = 16
	}
	if o.T1 == 0 {
		o.T1 = 3 * dram.Nanosecond
	}
	if o.T2 == 0 {
		o.T2 = 3 * dram.Nanosecond
	}
	return o
}

// ModuleResult is one row of Table 4: per-module HiRA coverage and
// normalized RowHammer threshold statistics.
type ModuleResult struct {
	Module   Module
	Coverage metrics.Summary // across tested RowAs
	NormNRH  metrics.Summary // across tested victims
	// HiRAWorks reports whether Algorithm 2 verified the second row
	// activation (the paper's criterion for a working module: thresholds
	// rise well above 1x; non-working chips stay at ~1x or yield no
	// pairable rows at all).
	HiRAWorks bool
}

// CharacterizeModule reproduces one module's Table 4 row.
func CharacterizeModule(m Module, opts Options) ModuleResult {
	opts = opts.withDefaults()
	g := CharzGeometry()
	h := softmc.NewHost(m.NewChip(g))

	tested := TestedRows(g, opts.RegionSize, 1)
	rowAs := SampleRows(tested, len(tested)/opts.RowAStride)
	rowBs := SampleRows(tested, len(tested)/opts.RowBStride)

	cov := MeasureCoverage(h, opts.Bank, rowAs, rowBs, opts.T1, opts.T2)

	victims := SampleRows(InteriorRows(g, tested), opts.NRHVictims)
	nrh := MeasureNRHRows(h, opts.Bank, victims, opts.T1, opts.T2)

	var norm []float64
	for _, r := range nrh {
		norm = append(norm, r.Normalized)
	}
	res := ModuleResult{
		Module:   m,
		Coverage: cov.Summary,
		NormNRH:  metrics.Summarize(norm),
	}
	res.HiRAWorks = len(nrh) > 0 && res.NormNRH.Mean > 1.5
	return res
}

// BankResult is one box of Fig. 6: the normalized RowHammer threshold
// distribution within one bank.
type BankResult struct {
	Bank       int
	Normalized metrics.Summary
}

// BankVariation reproduces Fig. 6 for one module: Algorithm 2 run on every
// bank. victimsPerBank <= 0 defaults to 8.
func BankVariation(m Module, victimsPerBank int, t1, t2 dram.Time) []BankResult {
	if victimsPerBank <= 0 {
		victimsPerBank = 8
	}
	if t1 == 0 {
		t1 = 3 * dram.Nanosecond
	}
	if t2 == 0 {
		t2 = 3 * dram.Nanosecond
	}
	g := CharzGeometry()
	h := softmc.NewHost(m.NewChip(g))
	tested := InteriorRows(g, TestedRows(g, 2048, 1))
	victims := SampleRows(tested, victimsPerBank)

	var out []BankResult
	for bank := 0; bank < g.Banks; bank++ {
		results := MeasureNRHRows(h, bank, victims, t1, t2)
		var norm []float64
		for _, r := range results {
			norm = append(norm, r.Normalized)
		}
		out = append(out, BankResult{Bank: bank, Normalized: metrics.Summarize(norm)})
	}
	return out
}
