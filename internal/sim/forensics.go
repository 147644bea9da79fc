package sim

import (
	"io"

	"hira/internal/sched"
	"hira/internal/telemetry"
)

// defaultForensicsNRH anchors the forensics thresholds for policies that
// carry no RowHammer threshold of their own (NoRefresh, Baseline,
// periodic HiRA-N): Fig. 12's least aggressive NRH, so the ledger still
// reports attack visibility against a present-day chip.
const defaultForensicsNRH = 1024

// mergedEventCap bounds the flight-recorder events kept when summaries
// from many cells are merged into one policy-level summary; overflow is
// tallied in DroppedEvents, never silently lost.
const mergedEventCap = 8192

// ForensicsOptions selects RowHammer forensics for a simulated system.
// Forensics hooks are purely observational: the command stream, the
// scheduler stats, and every figure are bit-identical with them on or
// off (see TestForensicsDifferential). The cost is memory (a 12-byte
// table slot per DRAM row the run has touched, in a table kept at most
// half full, plus two bits per DRAM row), a few table lookups per
// activation, and larger checkpoints (the ledger rides in every
// snapshot), so it is opt-in.
type ForensicsOptions struct {
	// Enabled attaches the per-row activation ledger and
	// mitigation-efficacy tallies.
	Enabled bool `json:"enabled,omitempty"`
	// Recorder additionally enables the DRAM command flight recorder
	// (bounded; captures command windows around threshold crossings).
	Recorder bool `json:"recorder,omitempty"`
}

// ForensicsSummary is one cell's (or, after aggregation, one policy's)
// forensics report: the measured-phase tally plus the ledger's running
// extremes and the flight recorder's log.
type ForensicsSummary struct {
	// Thresholds and HotThreshold echo the ledger configuration the
	// tallies were measured against (derived from the policy's NRH).
	Thresholds   []uint32 `json:"thresholds"`
	HotThreshold uint32   `json:"hot_threshold"`
	// MaxInterrefACTs is the largest interref activation count any row
	// reached. Unlike Tally it is a running max over the whole run
	// (warmup included), not a measured-phase diff: counts reset at
	// every charge restoration, so the max reflects real exposure, not
	// accumulation age. Across merged cells it is the max of maxes.
	MaxInterrefACTs uint32 `json:"max_interref_acts"`
	// MaxVictimExposure is the largest victim-side exposure any row
	// reached: adjacent-row activations since the row's own charge was
	// last restored. This is the mitigation-efficacy headline — an attack
	// succeeds when it exceeds the policy's NRH, and a victim-refreshing
	// mitigation keeps it below. A running max like MaxInterrefACTs.
	MaxVictimExposure uint32 `json:"max_victim_exposure"`
	// Tally is the measured-phase forensics counter set (cumulative
	// counters diffed at the warmup mark, exactly like sched.Stats).
	Tally sched.ForensicsTally `json:"tally"`
	// Events is the flight recorder's command log (present only when
	// the recorder was enabled); DroppedEvents counts commands lost to
	// the recorder cap or the merge cap.
	Events        []sched.FlightEvent `json:"events,omitempty"`
	DroppedEvents uint64              `json:"dropped_events,omitempty"`
}

// forensicsThresholds derives the ledger's alarm thresholds from a
// policy's RowHammer threshold: NRH/2 (an aggressor halfway to flipping
// bits) and NRH itself (a row the chip can no longer guarantee).
// Policies without an NRH fall back to defaultForensicsNRH.
func forensicsThresholds(nrh int) (thresholds []uint32, hot uint32) {
	if nrh <= 0 {
		nrh = defaultForensicsNRH
	}
	half := uint32(nrh / 2)
	if half == 0 {
		half = 1
	}
	return []uint32{half, uint32(nrh)}, half
}

// MergeForensics folds o into dst and returns the result, treating nil
// as empty: tallies add, maxes take the max, events concatenate up to
// mergedEventCap (overflow tallied as dropped). Thresholds are taken
// from the first non-nil summary — every cell of one sweep policy runs
// the same ledger configuration.
func MergeForensics(dst, o *ForensicsSummary) *ForensicsSummary {
	if o == nil {
		return dst
	}
	if dst == nil {
		cp := *o
		cp.Thresholds = append([]uint32(nil), o.Thresholds...)
		cp.Events = append([]sched.FlightEvent(nil), o.Events...)
		return &cp
	}
	dst.Tally = dst.Tally.Add(o.Tally)
	if o.MaxInterrefACTs > dst.MaxInterrefACTs {
		dst.MaxInterrefACTs = o.MaxInterrefACTs
	}
	if o.MaxVictimExposure > dst.MaxVictimExposure {
		dst.MaxVictimExposure = o.MaxVictimExposure
	}
	for _, e := range o.Events {
		if len(dst.Events) >= mergedEventCap {
			dst.DroppedEvents++
			continue
		}
		dst.Events = append(dst.Events, e)
	}
	dst.DroppedEvents += o.DroppedEvents
	return dst
}

// WriteChrome writes the flight recorder's command log in Chrome
// trace-event format: one lane per (rank, bank) under a per-channel
// process, timestamps converted from the simulator's picoseconds to the
// format's microseconds. It shares telemetry's encoder, so job traces
// and command logs open in the same Perfetto workflow.
func (s *ForensicsSummary) WriteChrome(w io.Writer) error {
	events := make([]telemetry.ChromeEvent, 0, len(s.Events))
	for _, e := range s.Events {
		name := e.Kind
		if e.Phase != "" {
			name += "/" + e.Phase
		}
		// tCK at DDR4-2400 is 833 ps; render each command as one tick
		// wide so adjacent commands stay distinguishable when zoomed in.
		events = append(events, telemetry.ChromeEvent{
			Name: name, Cat: "dram", Ph: "X",
			TS:  float64(e.At) / 1e6,
			Dur: 833e-6,
			PID: e.Channel, TID: e.Rank*64 + e.Bank,
			Args: map[string]any{"row": e.Row, "rank": e.Rank, "bank": e.Bank},
		})
	}
	return telemetry.WriteChromeEvents(w, events)
}
