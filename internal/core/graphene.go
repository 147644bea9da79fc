package core

import (
	"fmt"

	"hira/internal/dram"
	"hira/internal/sched"
)

// GrapheneConfig parameterizes the Graphene-style engine.
type GrapheneConfig struct {
	Org    dram.Org
	Timing dram.Timing
	// NRH is the RowHammer threshold being defended against. The tracker
	// trips at NRH/4 so a victim's exposure between its two neighbors'
	// trips (at most twice the trip threshold, plus queued-refresh slack)
	// stays below NRH.
	NRH int
	// Counters is the per-bank table size k. Graphene's guarantee needs
	// k >= activations-per-tREFW / threshold; an undersized table is the
	// interesting failure mode many-sided attacks exploit.
	Counters int
}

// grapheneBank is one bank's Misra-Gries summary: up to k (row, count)
// entries over a shared spillover floor. Every row's true activation
// count since the window reset is at most its table count (or the
// spillover if absent), so no row can reach spill+threshold unseen.
type grapheneBank struct {
	rows  []int32
	cnts  []uint32
	n     int
	spill uint32
}

// Graphene is a Graphene-style (MICRO 2020) counter-table refresh engine:
// per-bank Misra-Gries top-k activation counters over each tREFW window;
// when a row's count climbs a full threshold above the spillover floor,
// its neighbors are queued for preventive refresh and the count resets to
// the floor. Retention refresh stays conventional rank REF. The engine
// keeps no DRAM-visible state beyond the pending victim queue; its
// tracker tables, window reset time and victim queues all checkpoint
// (see Snapshot), so cells running it resume like any other.
type Graphene struct {
	mitigationBase
	cfg       GrapheneConfig
	thresh    uint32
	banks     []grapheneBank
	nextReset dram.Time
	rpb       int
}

// NewGraphene builds the engine.
func NewGraphene(cfg GrapheneConfig) (*Graphene, error) {
	if err := cfg.Org.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if cfg.NRH < 8 {
		return nil, fmt.Errorf("core: graphene NRH %d below 8 (threshold NRH/4 would vanish)", cfg.NRH)
	}
	if cfg.Counters < 1 || cfg.Counters > 1024 {
		return nil, fmt.Errorf("core: graphene counters %d outside [1, 1024]", cfg.Counters)
	}
	g := &Graphene{
		mitigationBase: newMitigationBase(cfg.Org, cfg.Timing),
		cfg:            cfg,
		thresh:         uint32(cfg.NRH / 4),
		banks:          make([]grapheneBank, cfg.Org.TotalBanks()),
		nextReset:      cfg.Timing.TREFW,
		rpb:            cfg.Org.RowsPerBank(),
	}
	for i := range g.banks {
		g.banks[i].rows = make([]int32, cfg.Counters)
		g.banks[i].cnts = make([]uint32, cfg.Counters)
	}
	return g, nil
}

// Stats returns the engine's mitigation tallies.
func (g *Graphene) Stats() MitigationStats { return g.stats }

// Tick implements sched.RefreshEngine: the counter tables reset every
// tREFW, when the retention schedule has refreshed every row once.
func (g *Graphene) Tick(now dram.Time) {
	for now >= g.nextReset {
		for i := range g.banks {
			b := &g.banks[i]
			b.n = 0
			b.spill = 0
		}
		g.stats.TableResets++
		g.nextReset += g.t.TREFW
	}
}

// NoteActivate implements sched.RefreshEngine: the Misra-Gries update.
// Refresh activations (including the engine's own victim refreshes) do
// not count — only demand activations disturb neighbors at scale.
func (g *Graphene) NoteActivate(loc dram.Location, demand bool, now dram.Time) {
	if !demand {
		return
	}
	b := &g.banks[g.bankIndex(loc)]
	row := int32(loc.Row)
	for i := 0; i < b.n; i++ {
		if b.rows[i] == row {
			b.cnts[i]++
			g.maybeTrip(b, i, loc)
			return
		}
	}
	if b.n < len(b.rows) {
		b.rows[b.n] = row
		b.cnts[b.n] = b.spill + 1
		b.n++
		g.maybeTrip(b, b.n-1, loc)
		return
	}
	// Table full: replace an entry resting on the spillover floor, or
	// raise the floor (no entry can then be under-counted).
	for i := 0; i < b.n; i++ {
		if b.cnts[i] == b.spill {
			b.rows[i] = row
			b.cnts[i] = b.spill + 1
			g.maybeTrip(b, i, loc)
			return
		}
	}
	b.spill++
}

// maybeTrip fires the tracker when an entry's count reaches the trip
// threshold. The comparison is against the absolute count: a row's true
// activation count never exceeds its table count (Misra-Gries
// overcounts, by at most the spillover floor), so no row hammers past
// the threshold unseen. When the spillover floor itself approaches the
// threshold the table is undersized for the activation rate and trips
// degenerate to storms — the failure mode undersized counter tables are
// in the zoo to demonstrate.
func (g *Graphene) maybeTrip(b *grapheneBank, i int, loc dram.Location) {
	if b.cnts[i] >= g.thresh {
		g.enqueueVictims(loc, g.rpb)
		b.cnts[i] = b.spill
	}
}

var _ sched.RefreshEngine = (*Graphene)(nil)
