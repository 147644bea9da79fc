package dram

import "fmt"

// Org describes the organization of a DRAM main-memory system from the
// memory controller's point of view: how many channels, ranks per channel,
// bank groups and banks, and how each bank is divided into subarrays and
// rows.
//
// The zero value is not useful; construct with DefaultOrg or fill all
// fields and call Validate.
type Org struct {
	// Channels is the number of independent memory channels. Channels do
	// not share command, address, or data buses.
	Channels int
	// RanksPerChannel is the number of ranks sharing each channel's buses.
	RanksPerChannel int
	// BankGroups is the number of bank groups per rank (DDR4: 4).
	BankGroups int
	// BanksPerGroup is the number of banks per bank group (DDR4: 4).
	BanksPerGroup int
	// SubarraysPerBank is the number of subarrays in each bank. The HiRA
	// paper models 128 subarrays per bank (§6, SPT sizing).
	SubarraysPerBank int
	// RowsPerSubarray is the number of DRAM rows in each subarray.
	RowsPerSubarray int
	// RowBytes is the size of one DRAM row (the paper's examples use 8 KB).
	RowBytes int
	// ChipCapacityGbit is the per-chip capacity in gigabits; it determines
	// tRFC via Timing.ScaleRefreshToCapacity and is recorded for reporting.
	ChipCapacityGbit int
}

// DefaultOrg returns the simulated system configuration of the paper's
// Table 3: 4 bank groups × 4 banks (16 banks per rank) and 64 K rows per
// bank (128 subarrays × 512 rows), 8 KB rows, 8 Gb chips.
//
// Channels and ranks default to 1 each; §10's sensitivity studies sweep
// them from 1 to 8.
func DefaultOrg() Org {
	return Org{
		Channels:         1,
		RanksPerChannel:  1,
		BankGroups:       4,
		BanksPerGroup:    4,
		SubarraysPerBank: 128,
		RowsPerSubarray:  512,
		RowBytes:         8 << 10,
		ChipCapacityGbit: 8,
	}
}

// Validate reports an error describing the first invalid field, if any.
func (o Org) Validate() error {
	check := func(name string, v int) error {
		if v <= 0 {
			return fmt.Errorf("dram: Org.%s must be positive, got %d", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Channels", o.Channels},
		{"RanksPerChannel", o.RanksPerChannel},
		{"BankGroups", o.BankGroups},
		{"BanksPerGroup", o.BanksPerGroup},
		{"SubarraysPerBank", o.SubarraysPerBank},
		{"RowsPerSubarray", o.RowsPerSubarray},
		{"RowBytes", o.RowBytes},
		{"ChipCapacityGbit", o.ChipCapacityGbit},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// BanksPerRank returns the number of banks in one rank.
func (o Org) BanksPerRank() int { return o.BankGroups * o.BanksPerGroup }

// BanksPerChannel returns the number of banks behind one channel.
func (o Org) BanksPerChannel() int { return o.RanksPerChannel * o.BanksPerRank() }

// TotalBanks returns the number of banks in the whole system.
func (o Org) TotalBanks() int { return o.Channels * o.BanksPerChannel() }

// RowsPerBank returns the number of rows in one bank.
func (o Org) RowsPerBank() int { return o.SubarraysPerBank * o.RowsPerSubarray }

// SubarrayOfRow returns the subarray index that contains row.
func (o Org) SubarrayOfRow(row int) int { return row / o.RowsPerSubarray }

// BankID identifies one bank in the system.
type BankID struct {
	Channel int
	Rank    int
	// Bank is the flat bank index within the rank:
	// bankGroup*BanksPerGroup + bankInGroup.
	Bank int
}

// BankGroup returns the DDR4 bank group of b under org o.
func (b BankID) BankGroup(o Org) int { return b.Bank / o.BanksPerGroup }

// FlatChannelIndex returns a dense index of the bank within its channel.
func (b BankID) FlatChannelIndex(o Org) int {
	return b.Rank*o.BanksPerRank() + b.Bank
}

// Flat returns a dense index of the bank within the whole system.
func (b BankID) Flat(o Org) int {
	return b.Channel*o.BanksPerChannel() + b.FlatChannelIndex(o)
}

func (b BankID) String() string {
	return fmt.Sprintf("ch%d/rk%d/ba%d", b.Channel, b.Rank, b.Bank)
}

// Location is a fully decoded DRAM address.
type Location struct {
	BankID
	Row int
	Col int
}

func (l Location) String() string {
	return fmt.Sprintf("%v/row%d/col%d", l.BankID, l.Row, l.Col)
}
