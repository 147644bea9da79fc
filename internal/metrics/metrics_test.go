package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 || s.IQR != 2 {
		t.Errorf("quartiles: %+v", s)
	}
}

func TestSummarizeEmptyAndSingleton(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty: %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 {
		t.Errorf("singleton: %+v", s)
	}
}

func TestSummarizeProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				// Bound magnitudes so the sum cannot overflow; the
				// invariants under test are order statistics.
				xs = append(xs, math.Mod(x, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		ordered := s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
		meanIn := s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
		return ordered && meanIn && s.N == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if !sort.Float64sAreSorted([]float64{xs[0]}) && xs[0] != 3 {
		t.Error("input mutated")
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestWeightedSpeedup(t *testing.T) {
	// All cores at alone speed: WS = number of cores.
	ws := WeightedSpeedup([]float64{1, 2, 3}, []float64{1, 2, 3})
	if math.Abs(ws-3) > 1e-12 {
		t.Errorf("WS = %f, want 3", ws)
	}
	// Half speed on every core: WS = 1.5.
	ws = WeightedSpeedup([]float64{0.5, 1, 1.5}, []float64{1, 2, 3})
	if math.Abs(ws-1.5) > 1e-12 {
		t.Errorf("WS = %f, want 1.5", ws)
	}
}

func TestMeanGeoMeanNormalize(t *testing.T) {
	if Mean([]float64{2, 4}) != 3 {
		t.Error("Mean")
	}
	if Mean(nil) != 0 {
		t.Error("empty handling")
	}
}
