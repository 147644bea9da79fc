package dramtest

import (
	"fmt"

	"hira/internal/dram"
)

// RefreshAuditor tracks, per DRAM row, when the row's charge was last
// restored, and reports rows that exceed the retention window tREFW.
//
// Charge is restored by:
//   - a REF command, which refreshes the next RowsPerREF rows of every
//     bank in the rank, advancing an internal per-bank pointer exactly as a
//     DRAM chip's internal refresh counter does; and
//   - an ACT to a row (including both activations of a HiRA sequence),
//     which fully restores that row's cells.
//
// The auditor is the ground truth for the paper's data-integrity invariant:
// under any refresh scheduling policy, no row may ever go unrefreshed for
// longer than tREFW.
type RefreshAuditor struct {
	org dram.Org
	t   dram.Timing

	lastRefresh [][]dram.Time // [flatBank][row]
	refPtr      []int         // [flatBank] next row a REF will refresh
	rowsPerREF  int
}

// NewRefreshAuditor returns an auditor with every row considered refreshed
// at time 0 (freshly initialized memory).
func NewRefreshAuditor(org dram.Org, t dram.Timing) *RefreshAuditor {
	a := &RefreshAuditor{
		org:        org,
		t:          t,
		rowsPerREF: t.RowsPerREF(org.RowsPerBank()),
	}
	a.lastRefresh = make([][]dram.Time, org.TotalBanks())
	for i := range a.lastRefresh {
		a.lastRefresh[i] = make([]dram.Time, org.RowsPerBank())
	}
	a.refPtr = make([]int, org.TotalBanks())
	return a
}

// RowsPerREF reports how many rows per bank each REF command restores.
func (a *RefreshAuditor) RowsPerREF() int { return a.rowsPerREF }

// Observe updates refresh state from one command.
func (a *RefreshAuditor) Observe(c dram.Command) {
	switch c.Kind {
	case dram.KindACT:
		bank := c.Loc.Flat(a.org)
		a.lastRefresh[bank][c.Loc.Row] = c.At
	case dram.KindREF:
		for b := 0; b < a.org.BanksPerRank(); b++ {
			cc := c
			cc.Loc.Bank = b
			flat := cc.Loc.Flat(a.org)
			ptr := a.refPtr[flat]
			for i := 0; i < a.rowsPerREF; i++ {
				a.lastRefresh[flat][ptr] = c.At
				ptr++
				if ptr == a.org.RowsPerBank() {
					ptr = 0
				}
			}
			a.refPtr[flat] = ptr
		}
	}
}

// StaleRow describes a row that has exceeded the retention window.
type StaleRow struct {
	Bank dram.BankID
	Row  int
	// Age is the time elapsed since the row's last refresh.
	Age dram.Time
}

func (s StaleRow) String() string {
	return fmt.Sprintf("%v/row%d stale for %v", s.Bank, s.Row, s.Age)
}

// StaleAt returns every row whose last refresh is more than tREFW before
// now. The result is capped at limit entries (limit <= 0 means unlimited).
func (a *RefreshAuditor) StaleAt(now dram.Time, limit int) []StaleRow {
	var out []StaleRow
	for flat, rows := range a.lastRefresh {
		bank := a.bankFromFlat(flat)
		for row, last := range rows {
			if now-last > a.t.TREFW {
				out = append(out, StaleRow{Bank: bank, Row: row, Age: now - last})
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}

// OldestAge returns the largest refresh age across all rows at time now.
func (a *RefreshAuditor) OldestAge(now dram.Time) dram.Time {
	var oldest dram.Time
	for _, rows := range a.lastRefresh {
		for _, last := range rows {
			if age := now - last; age > oldest {
				oldest = age
			}
		}
	}
	return oldest
}

func (a *RefreshAuditor) bankFromFlat(flat int) dram.BankID {
	perChan := a.org.BanksPerChannel()
	ch := flat / perChan
	rem := flat % perChan
	rank := rem / a.org.BanksPerRank()
	return dram.BankID{Channel: ch, Rank: rank, Bank: rem % a.org.BanksPerRank()}
}
