// Preventive-mitigation zoo: refresh engines that pair the conventional
// rank-REF retention schedule with an activation tracker that refreshes
// victim rows before an aggressor's count can reach the RowHammer
// threshold. Unlike HiRA-MC's PARA (probabilistic, refresh-parallelized),
// these are the deterministic counter-based designs the paper compares
// against conceptually: Graphene-style top-k counting (graphene.go) and a
// DDR5 RFM-style activation budget (rfm.go). Both perform their victim
// refreshes the conventional way — blocking row refreshes
// (sched.OpRowRefreshBlocking) that hold the rank for a row cycle — so
// their performance cost is visible in the same weighted-speedup terms as
// every other policy.

package core

import (
	"hira/internal/dram"
	"hira/internal/sched"
)

// victimRingCap bounds each channel's queue of pending victim refreshes.
// A full ring drops the newest victims (counted in MitigationStats); at
// 256 entries deep that only happens when triggers outpace the rank's
// ability to absorb blocking refreshes by orders of magnitude.
const victimRingCap = 256

// victimEmit caps how many pending victims one Mandatory call offers the
// controller; only one can start per rank per row cycle anyway.
const victimEmit = 4

// victimRef is one queued victim-row refresh.
type victimRef struct {
	rank, bank, row int
}

// victimRing is a fixed-capacity FIFO of pending victim refreshes.
type victimRing struct {
	buf  [victimRingCap]victimRef
	head int
	n    int
}

func (r *victimRing) push(v victimRef) bool {
	if r.n == victimRingCap {
		return false
	}
	r.buf[(r.head+r.n)%victimRingCap] = v
	r.n++
	return true
}

func (r *victimRing) at(i int) victimRef { return r.buf[(r.head+i)%victimRingCap] }

// remove deletes the first entry equal to v, preserving FIFO order.
func (r *victimRing) remove(v victimRef) bool {
	for i := 0; i < r.n; i++ {
		if r.at(i) == v {
			for j := i; j > 0; j-- {
				r.buf[(r.head+j)%victimRingCap] = r.buf[(r.head+j-1)%victimRingCap]
			}
			r.head = (r.head + 1) % victimRingCap
			r.n--
			return true
		}
	}
	return false
}

// MitigationStats tallies a zoo engine's activity.
type MitigationStats struct {
	// Triggers counts tracker threshold trips (each enqueues the trip
	// row's neighbors as victims).
	Triggers uint64
	// VictimRefreshes counts victim-row refreshes the controller
	// performed.
	VictimRefreshes uint64
	// DroppedVictims counts victims lost to a full ring.
	DroppedVictims uint64
	// TableResets counts tracker-state resets (Graphene's tREFW windows,
	// RFM's post-trigger clears).
	TableResets uint64
}

// mitigationBase is the zoo engines' shared half: conventional rank-REF
// retention via an embedded BaselineREF, plus per-channel victim queues
// drained through blocking row refreshes. The tracker half (NoteActivate)
// is engine-specific.
type mitigationBase struct {
	org     dram.Org
	t       dram.Timing
	ref     *sched.BaselineREF
	rings   []victimRing
	scratch []sched.Op
	bpc     int // banks per channel
	bpr     int // banks per rank
	stats   MitigationStats
}

func newMitigationBase(org dram.Org, t dram.Timing) mitigationBase {
	return mitigationBase{
		org:     org,
		t:       t,
		ref:     sched.NewBaselineREF(org, t),
		rings:   make([]victimRing, org.Channels),
		scratch: make([]sched.Op, 0, victimEmit+org.RanksPerChannel),
		bpc:     org.BanksPerChannel(),
		bpr:     org.BanksPerRank(),
	}
}

// enqueueVictims queues the neighbors of a tripped aggressor row.
func (m *mitigationBase) enqueueVictims(loc dram.Location, rowsPerBank int) {
	m.stats.Triggers++
	ring := &m.rings[loc.Channel]
	for _, row := range [2]int{loc.Row - 1, loc.Row + 1} {
		if row < 0 || row >= rowsPerBank {
			continue
		}
		if !ring.push(victimRef{rank: loc.Rank, bank: loc.Bank, row: row}) {
			m.stats.DroppedVictims++
		}
	}
}

// Mandatory implements sched.RefreshEngine: due rank REFs first (retention
// must not starve), then pending victim refreshes in FIFO order.
func (m *mitigationBase) Mandatory(channel int, now dram.Time) []sched.Op {
	m.scratch = m.scratch[:0]
	m.scratch = append(m.scratch, m.ref.Mandatory(channel, now)...)
	ring := &m.rings[channel]
	for i := 0; i < ring.n && i < victimEmit; i++ {
		v := ring.at(i)
		m.scratch = append(m.scratch, sched.Op{
			Kind: sched.OpRowRefreshBlocking,
			Rank: v.rank, Bank: v.bank, RowA: v.row,
			PreventiveA: true,
		})
	}
	return m.scratch
}

// Piggyback implements sched.RefreshEngine: zoo engines do not
// parallelize refreshes.
func (m *mitigationBase) Piggyback(dram.Location, dram.Time) (int, bool, bool) {
	return 0, false, false
}

// NoteRefreshed implements sched.RefreshEngine.
func (m *mitigationBase) NoteRefreshed(op sched.Op, channel int, now dram.Time) {
	switch op.Kind {
	case sched.OpRankREF:
		m.ref.NoteRefreshed(op, channel, now)
	case sched.OpRowRefreshBlocking:
		if m.rings[channel].remove(victimRef{rank: op.Rank, bank: op.Bank, row: op.RowA}) {
			m.stats.VictimRefreshes++
		}
	}
}

// NextEvent implements sched.RefreshEngine. Pending victims are already
// visible through Mandatory, so only the REF schedule bounds the skip.
func (m *mitigationBase) NextEvent(now dram.Time) dram.Time { return m.ref.NextEvent(now) }

// bankIndex returns the system-flat bank index of a location.
func (m *mitigationBase) bankIndex(loc dram.Location) int {
	return loc.Channel*m.bpc + loc.Rank*m.bpr + loc.Bank
}
