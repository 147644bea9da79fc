package workload

import (
	"fmt"

	"hira/internal/cache"
	"hira/internal/dram"
)

// DefaultEvictRows is the default eviction-class size: one more row than
// the LLC has ways, so cycling the class in LRU order misses on every
// access. Attack streams are built against the simulated system's LLC
// geometry (cache.LLC*), so every hammering access reaches DRAM.
const DefaultEvictRows = cache.LLCWays + 1

// AttackKind names a hammering pattern.
const (
	// AttackSingle hammers one aggressor row adjacent to the victim.
	AttackSingle = "single"
	// AttackDouble hammers both rows sandwiching the victim — the classic
	// double-sided pattern with the highest per-activation disturbance.
	AttackDouble = "double"
	// AttackMany hammers Aggressors rows fanned out around the victim at
	// odd offsets (V-1, V+1, V-3, V+3, ...), the many-sided pattern that
	// defeats counter tables with too few entries.
	AttackMany = "many"
)

// AttackSpec parameterizes a mapping-aware RowHammer attacker workload.
// The zero value of the optional fields selects the strongest variant:
// continuous hammering (no duty cycle), interleaved aggressor classes,
// and no decoys. Setting BurstAccesses/IdleGap produces the
// refresh-synchronized variant (hammer bursts separated by idle windows
// sized to dodge or straddle refresh operations); Decoys > 0 produces the
// decoy-row variant that dilutes activation-frequency detectors.
type AttackSpec struct {
	// Kind is the hammering pattern: single, double, or many.
	Kind string `json:"kind"`
	// Channel, Rank, Bank locate the target bank. Bank is rank-relative
	// (flat across bank groups, as dram.Location counts them).
	Channel int `json:"channel"`
	Rank    int `json:"rank"`
	Bank    int `json:"bank"`
	// VictimRow is the row whose disturbance the attack maximizes.
	VictimRow int `json:"victim_row"`
	// Aggressors is the aggressor-row count for AttackMany (>= 3; ignored
	// for single/double, which imply 1 and 2).
	Aggressors int `json:"aggressors,omitempty"`
	// EvictRows is the number of same-bank, same-LLC-set rows cycled per
	// aggressor so the cache never filters the hammering (default
	// DefaultEvictRows; minimum that defeats the LLC is ways+1).
	EvictRows int `json:"evict_rows,omitempty"`
	// BurstAccesses > 0 splits the stream into hammer bursts of that many
	// accesses; IdleGap non-memory instructions separate bursts.
	BurstAccesses int `json:"burst_accesses,omitempty"`
	IdleGap       int `json:"idle_gap,omitempty"`
	// Decoys inserts that many far-away decoy rows, one visited after each
	// full hammer round, masking the aggressors' activation share.
	Decoys int `json:"decoys,omitempty"`
	// Sequential drains each aggressor's eviction class fully before
	// switching aggressors instead of interleaving classes access by
	// access (interleaved is the default and hammers most evenly).
	Sequential bool `json:"sequential,omitempty"`
}

func (s AttackSpec) withDefaults() AttackSpec {
	if s.EvictRows == 0 {
		s.EvictRows = DefaultEvictRows
	}
	switch s.Kind {
	case AttackSingle:
		s.Aggressors = 1
	case AttackDouble:
		s.Aggressors = 2
	}
	return s
}

// Validate checks the spec against a DRAM organization.
func (s AttackSpec) Validate(org dram.Org) error {
	s = s.withDefaults()
	switch s.Kind {
	case AttackSingle, AttackDouble:
	case AttackMany:
		if s.Aggressors < 3 || s.Aggressors > 16 {
			return fmt.Errorf("workload: attack aggressors %d outside [3, 16]", s.Aggressors)
		}
	default:
		return fmt.Errorf("workload: unknown attack kind %q (want single, double, or many)", s.Kind)
	}
	if s.Channel < 0 || s.Channel >= org.Channels {
		return fmt.Errorf("workload: attack channel %d outside [0, %d)", s.Channel, org.Channels)
	}
	if s.Rank < 0 || s.Rank >= org.RanksPerChannel {
		return fmt.Errorf("workload: attack rank %d outside [0, %d)", s.Rank, org.RanksPerChannel)
	}
	if s.Bank < 0 || s.Bank >= org.BanksPerRank() {
		return fmt.Errorf("workload: attack bank %d outside [0, %d)", s.Bank, org.BanksPerRank())
	}
	if s.EvictRows < 1 || s.EvictRows > 64 {
		return fmt.Errorf("workload: attack evict_rows %d outside [1, 64]", s.EvictRows)
	}
	if s.BurstAccesses < 0 || s.IdleGap < 0 {
		return fmt.Errorf("workload: attack burst_accesses/idle_gap must be non-negative")
	}
	if s.BurstAccesses == 0 && s.IdleGap > 0 {
		return fmt.Errorf("workload: attack idle_gap without burst_accesses")
	}
	if s.Decoys < 0 || s.Decoys > 16 {
		return fmt.Errorf("workload: attack decoys %d outside [0, 16]", s.Decoys)
	}
	_, err := NewAttack(s, org)
	return err
}

// Attack is a mapping-aware RowHammer attacker Source: it hammers rows
// adjacent to a victim through LLC eviction sets, so every access both
// misses the shared cache and row-conflicts in the target bank —
// activating an aggressor at nearly one ACT per row cycle. The stream is
// fully deterministic and identical for every seed (SeedInvariant), so
// experiment layers canonicalize its per-core seed like a recorded trace.
type Attack struct {
	spec AttackSpec
	org  dram.Org
	m    int        // row stride between same-bank rows sharing an LLC set
	rows [][]int    // per aggressor: its eviction class's rows
	addr [][]uint64 // per aggressor: the class rows' block-0 addresses
	dec  []uint64   // decoy rows' block-0 addresses
}

// NewAttack builds the attacker for a DRAM organization. The spec's
// aggressor rows are expanded into LLC eviction classes using the same
// MOP address mapping the simulator runs, so the attack stays effective
// for any organization the sweep configures.
func NewAttack(spec AttackSpec, org dram.Org) (*Attack, error) {
	spec = spec.withDefaults()
	switch spec.Kind {
	case AttackSingle, AttackDouble, AttackMany:
	default:
		return nil, fmt.Errorf("workload: unknown attack kind %q", spec.Kind)
	}
	if spec.Aggressors < 1 {
		return nil, fmt.Errorf("workload: attack needs at least one aggressor")
	}
	mapper := dram.NewMOPMapper(org)
	loc := func(row int) dram.Location {
		return dram.Location{
			BankID: dram.BankID{Channel: spec.Channel, Rank: spec.Rank, Bank: spec.Bank},
			Row:    row,
		}
	}
	set := func(row int) uint64 {
		return (mapper.Addr(loc(row)) / cache.LLCBlock) % cache.LLCSets
	}
	rowsPerBank := org.RowsPerBank()
	// m: the smallest row stride within one bank that preserves the LLC
	// set. It exists for every power-of-two geometry; searching keeps the
	// construction correct for any organization.
	m := 0
	for s := 1; s <= cache.LLCSets && s < rowsPerBank; s++ {
		if set(s) == set(0) {
			m = s
			break
		}
	}
	if m == 0 {
		return nil, fmt.Errorf("workload: no same-set row stride within the bank (rows %d)", rowsPerBank)
	}
	// Aggressor base rows at odd offsets around the victim.
	bases := make([]int, 0, spec.Aggressors)
	for i := 0; len(bases) < spec.Aggressors; i++ {
		off := 2*(i/2) + 1 // 1, 1, 3, 3, 5, ...
		if i%2 == 0 {
			off = -off
		}
		if spec.Kind == AttackSingle {
			off = 1
		}
		bases = append(bases, spec.VictimRow+off)
	}
	a := &Attack{spec: spec, org: org, m: m}
	span := (spec.EvictRows - 1) * m
	for _, base := range bases {
		if base < 0 || base+span >= rowsPerBank {
			return nil, fmt.Errorf("workload: attack eviction class [%d, %d] escapes the bank's %d rows",
				base, base+span, rowsPerBank)
		}
		rows := make([]int, spec.EvictRows)
		addrs := make([]uint64, spec.EvictRows)
		for k := range rows {
			r := base + k*m
			if set(r) != set(base) {
				return nil, fmt.Errorf("workload: eviction class rows %d and %d land in different LLC sets", base, r)
			}
			rows[k] = r
			addrs[k] = mapper.Addr(loc(r))
		}
		a.rows = append(a.rows, rows)
		a.addr = append(a.addr, addrs)
	}
	// Decoy rows sit half a bank away from the victim, m apart, so they
	// share no neighbors with the attack's rows yet stay in-bank.
	for d := 0; d < spec.Decoys; d++ {
		r := (spec.VictimRow + rowsPerBank/2 + d*m) % rowsPerBank
		a.dec = append(a.dec, mapper.Addr(loc(r)))
	}
	return a, nil
}

// Spec returns the attack's (default-resolved) spec.
func (a *Attack) Spec() AttackSpec { return a.spec }

// AggressorRows returns the base aggressor rows (the rows adjacent to the
// victim; the eviction-class companions are m rows further out each).
func (a *Attack) AggressorRows() []int {
	out := make([]int, len(a.rows))
	for i, rows := range a.rows {
		out[i] = rows[0]
	}
	return out
}

// Key implements Source: every spec parameter plus the address-mapping
// geometry the row addresses were derived from, so an attack re-run under
// a different organization or tuning can never alias a cached cell.
func (a *Attack) Key() string {
	s := a.spec
	o := a.org
	return fmt.Sprintf("attack(%s,ch=%d,rk=%d,bk=%d,v=%d,ag=%d,ev=%d,burst=%d,idle=%d,dec=%d,seq=%t;org=%dx%dx%dx%dx%dx%d)",
		s.Kind, s.Channel, s.Rank, s.Bank, s.VictimRow, s.Aggressors, s.EvictRows,
		s.BurstAccesses, s.IdleGap, s.Decoys, s.Sequential,
		o.Channels, o.RanksPerChannel, o.BankGroups, o.BanksPerGroup, o.RowsPerBank(), o.RowBytes)
}

// Label implements Source.
func (a *Attack) Label() string {
	return fmt.Sprintf("atk-%s-v%d", a.spec.Kind, a.spec.VictimRow)
}

// SeedInvariant implements workload.SeedInvariant: the stream is the same
// for every seed.
func (a *Attack) SeedInvariant() bool { return true }

// Stream implements Source. The seed is ignored: hammering is a fixed
// schedule, not a stochastic process.
func (a *Attack) Stream(uint64) Stream {
	return &attackStream{a: a, pos: make([]int, len(a.addr))}
}

// attackStream cycles the aggressors' eviction classes. Interleaved mode
// visits one row of each class in turn; sequential mode drains a class
// before moving on. Either way each class is traversed in LRU order, so
// with EvictRows > LLC ways every access misses the cache, and since all
// rows share one bank every access is a row conflict — one activation per
// row cycle, the maximum hammer rate the DRAM timing allows.
type attackStream struct {
	a     *Attack
	class int
	pos   []int
	round int // accesses into the current hammer round
	burst int // accesses into the current duty-cycle burst
	decoy int // next decoy to visit
}

// Next implements Stream.
func (s *attackStream) Next() Access {
	a := s.a
	roundLen := len(a.addr) * a.spec.EvictRows
	var addr uint64
	if len(a.dec) > 0 && s.round == roundLen {
		// One decoy access after each full hammer round.
		addr = a.dec[s.decoy]
		s.decoy = (s.decoy + 1) % len(a.dec)
		s.round = 0
	} else {
		addr = a.addr[s.class][s.pos[s.class]]
		if a.spec.Sequential {
			s.pos[s.class]++
			if s.pos[s.class] == a.spec.EvictRows {
				s.pos[s.class] = 0
				s.class = (s.class + 1) % len(a.addr)
			}
		} else {
			s.pos[s.class]++
			if s.pos[s.class] == a.spec.EvictRows {
				s.pos[s.class] = 0
			}
			s.class = (s.class + 1) % len(a.addr)
		}
		s.round++
		if len(a.dec) == 0 && s.round == roundLen {
			s.round = 0
		}
	}
	gap := 0
	s.burst++
	if a.spec.BurstAccesses > 0 && s.burst >= a.spec.BurstAccesses {
		// Refresh-synchronized duty cycle: idle between hammer bursts.
		gap = a.spec.IdleGap
		s.burst = 0
	}
	return Access{Addr: addr, Write: false, Gap: gap}
}
