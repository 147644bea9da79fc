// Package metrics provides the statistics used to report the paper's
// experiments: box-and-whiskers summaries (Figs. 4 and 6), the mean, and
// the weighted-speedup system-performance metric (§7, Eyerman &
// Eeckhout).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary is a box-and-whiskers five-number summary plus mean and count,
// matching the plots the paper uses (footnote 6: box bounded by the first
// and third quartiles, whiskers at minimum and maximum).
type Summary struct {
	N                 int
	Min, Max          float64
	Median, Q1, Q3    float64
	Mean, StdDev, IQR float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for an
// empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum, sq float64
	for _, x := range s {
		sum += x
	}
	mean := sum / float64(len(s))
	for _, x := range s {
		sq += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(sq / float64(len(s)))
	out := Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Median: quantileSorted(s, 0.5),
		Q1:     quantileSorted(s, 0.25),
		Q3:     quantileSorted(s, 0.75),
		Mean:   mean,
		StdDev: sd,
	}
	out.IQR = out.Q3 - out.Q1
	return out
}

// quantileSorted returns the q-quantile of a sorted slice by linear
// interpolation.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}

// String renders the summary in a compact one-line form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}

// WeightedSpeedup computes the multiprogrammed system-performance metric
// of §7: the sum over cores of IPC_shared / IPC_alone.
func WeightedSpeedup(ipcShared, ipcAlone []float64) float64 {
	if len(ipcShared) != len(ipcAlone) {
		panic("metrics: WeightedSpeedup length mismatch")
	}
	var ws float64
	for i := range ipcShared {
		if ipcAlone[i] > 0 {
			ws += ipcShared[i] / ipcAlone[i]
		}
	}
	return ws
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
