// Package core implements the paper's primary contribution: the HiRA
// Memory Controller (HiRA-MC, §5). It plugs into the memory request
// scheduler (internal/sched) as its refresh engine and performs three
// actions in decreasing priority: refresh a row concurrently with a demand
// access (refresh-access parallelization), refresh a row concurrently with
// another refresh (refresh-refresh parallelization), or perform the
// refresh standalone right at its deadline.
//
// Components (Fig. 7): the Periodic Refresh Controller generates
// per-bank, staggered row-refresh requests; the Preventive Refresh
// Controller hosts PARA and enqueues victim-row refreshes into a per-bank
// PR-FIFO; the Refresh Table stores pending requests with deadlines; the
// RefPtr Table holds one next-row pointer per subarray; the Subarray Pairs
// Table (SPT) records which subarrays are electrically isolated; and the
// Concurrent Refresh Finder matches pending refreshes to demand
// activations or to each other.
package core

// SPT is the Subarray Pairs Table (§5.1.4): for each subarray, the set of
// subarrays in the same bank that share no bitline or sense amplifier, so
// a HiRA operation may pair rows across them. The controller obtains this
// information by one-time reverse engineering (as §4.2 does) or from
// manufacturer mode status registers; here it can be built from any
// isolation predicate.
type SPT struct {
	n        int
	iso      []bool  // n*n symmetric matrix
	partners [][]int // per subarray, isolated partner list
}

// NewSPT builds the table from an isolation predicate over subarray pairs.
func NewSPT(subarrays int, isolated func(a, b int) bool) *SPT {
	s := &SPT{n: subarrays, iso: make([]bool, subarrays*subarrays)}
	s.partners = make([][]int, subarrays)
	for a := 0; a < subarrays; a++ {
		for b := 0; b < subarrays; b++ {
			if a != b && isolated(a, b) {
				s.iso[a*subarrays+b] = true
				s.partners[a] = append(s.partners[a], b)
			}
		}
	}
	return s
}

// NewSyntheticSPT builds a deterministic SPT with approximately the given
// pairable fraction — the paper's evaluation assumes a refresh can be
// served concurrently with 32% of the rows in the bank (§7). Adjacent
// subarrays are never isolated (open-bitline sense-amp sharing).
func NewSyntheticSPT(subarrays int, coverage float64, seed uint64) *SPT {
	return NewSPT(subarrays, func(a, b int) bool {
		if d := a - b; d == 1 || d == -1 {
			return false
		}
		h := seed
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		for _, v := range [3]uint64{uint64(lo), uint64(hi), 0x9e3779b97f4a7c15} {
			h ^= v
			h += 0x9e3779b97f4a7c15
			h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
			h = (h ^ (h >> 27)) * 0x94d049bb133111eb
			h ^= h >> 31
		}
		return float64(h>>11)/(1<<53) < coverage
	})
}

// Isolated reports whether subarrays a and b may be HiRA-paired.
func (s *SPT) Isolated(a, b int) bool {
	if a == b {
		return false
	}
	return s.iso[a*s.n+b]
}

// Partners returns the subarrays isolated from a.
func (s *SPT) Partners(a int) []int { return s.partners[a] }
