package core

import (
	"fmt"

	"hira/internal/dram"
	"hira/internal/sched"
)

// RFMConfig parameterizes the DDR5 RFM-style engine.
type RFMConfig struct {
	Org    dram.Org
	Timing dram.Timing
	// RAAIMT is the Rolling Accumulated ACT Initial Management Threshold:
	// the per-bank demand-activation budget between refresh-management
	// events. Every RAAIMT activations the DRAM gets an RFM opportunity
	// and refreshes the neighbors of the row its internal tracker holds.
	RAAIMT int
}

// rfmBank is one bank's RAA counter plus a single-entry majority-vote
// tracker (Boyer-Moore): the only per-bank state a DRAM-internal TRR of
// this class affords. The dominant aggressor of a window wins the latch;
// an attack spreading activations over many rows rotates the latch and
// dilutes coverage — RFM's documented weakness.
type rfmBank struct {
	raa     uint32
	latch   int32
	latchN  uint32
	latched bool
}

// RFM is a DDR5 refresh-management-style engine: per-bank activation
// budgets (RAA counters) force a refresh-management event every RAAIMT
// demand activations, modeled as blocking preventive refreshes of the
// tracked row's neighbors. Retention refresh stays conventional rank
// REF. Its RAA counters, latches and victim queues checkpoint (see
// Snapshot), so cells running it resume like any other.
type RFM struct {
	mitigationBase
	cfg   RFMConfig
	banks []rfmBank
	rpb   int
}

// NewRFM builds the engine.
func NewRFM(cfg RFMConfig) (*RFM, error) {
	if err := cfg.Org.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if cfg.RAAIMT < 2 || cfg.RAAIMT > 1<<20 {
		return nil, fmt.Errorf("core: RFM RAAIMT %d outside [2, %d]", cfg.RAAIMT, 1<<20)
	}
	return &RFM{
		mitigationBase: newMitigationBase(cfg.Org, cfg.Timing),
		cfg:            cfg,
		banks:          make([]rfmBank, cfg.Org.TotalBanks()),
		rpb:            cfg.Org.RowsPerBank(),
	}, nil
}

// Stats returns the engine's mitigation tallies.
func (f *RFM) Stats() MitigationStats { return f.stats }

// Tick implements sched.RefreshEngine.
func (f *RFM) Tick(dram.Time) {}

// NoteActivate implements sched.RefreshEngine: advance the bank's RAA
// counter and majority-vote tracker; at RAAIMT, spend the RFM event on
// the latched row's neighbors and clear both.
func (f *RFM) NoteActivate(loc dram.Location, demand bool, now dram.Time) {
	if !demand {
		return
	}
	b := &f.banks[f.bankIndex(loc)]
	row := int32(loc.Row)
	switch {
	case b.latched && b.latch == row:
		b.latchN++
	case b.latchN > 0:
		b.latchN--
	default:
		b.latch = row
		b.latchN = 1
		b.latched = true
	}
	b.raa++
	if b.raa < uint32(f.cfg.RAAIMT) {
		return
	}
	victim := loc
	victim.Row = int(b.latch)
	f.enqueueVictims(victim, f.rpb)
	b.raa = 0
	b.latchN = 0
	b.latched = false
	f.stats.TableResets++
}

var _ sched.RefreshEngine = (*RFM)(nil)
