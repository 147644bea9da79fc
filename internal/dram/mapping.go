package dram

import (
	"fmt"
	"math/bits"
)

// AddressMapper translates physical byte addresses to DRAM locations.
type AddressMapper interface {
	// Map decodes a physical byte address into a DRAM location. The
	// column is in units of cache blocks within the row.
	Map(addr uint64) Location
}

// MOPMapper implements a Minimalist-Open-Page style address mapping
// (Kaseridis et al., MICRO'11), the mapping the paper's Table 3 uses.
//
// MOP keeps a small run of consecutive cache blocks (the MOP group) in the
// same row to preserve spatial locality, then interleaves successive groups
// across channels, bank groups, banks, and ranks to maximize parallelism.
// Address bits, from least significant:
//
//	[block offset | group offset | channel | bank group | bank | rank | column-high | row]
type MOPMapper struct {
	org Org
	// groupBlocks is the number of consecutive cache blocks kept in a row
	// before interleaving moves to the next channel/bank.
	groupBlocks int
	blockBytes  int

	// Map's decode, precomputed: one field per interleaved dimension,
	// least significant first, then the row count.
	block, group, ch, bg, bank, rank, colGroup mopField
	rows                                       uint64
}

// mopField is one interleaved address field of size n. A power-of-two
// field (every Table 3 and figure configuration) decodes with a mask
// and a shift; any other size (the organization allows, say, three
// channels) falls back to a division.
type mopField struct {
	n     uint64
	shift uint
	pow2  bool
}

func newMOPField(n int) mopField {
	f := mopField{n: uint64(n)}
	if n > 0 && n&(n-1) == 0 {
		f.pow2, f.shift = true, uint(bits.TrailingZeros64(f.n))
	}
	return f
}

// split returns a's digit in this field and the remaining high part.
func (f mopField) split(a uint64) (digit, rest uint64) {
	if f.pow2 {
		return a & (f.n - 1), a >> f.shift
	}
	return a % f.n, a / f.n
}

// NewMOPMapper returns a MOP mapper over org with 64-byte cache blocks and
// 4-block MOP groups.
func NewMOPMapper(org Org) *MOPMapper {
	m := &MOPMapper{org: org, groupBlocks: 4, blockBytes: 64}
	m.block = newMOPField(m.blockBytes)
	m.group = newMOPField(m.groupBlocks)
	m.ch = newMOPField(org.Channels)
	m.bg = newMOPField(org.BankGroups)
	m.bank = newMOPField(org.BanksPerGroup)
	m.rank = newMOPField(org.RanksPerChannel)
	m.colGroup = newMOPField(org.RowBytes / m.blockBytes / m.groupBlocks)
	m.rows = uint64(org.RowsPerBank())
	return m
}

// BlockBytes returns the cache-block granularity of the mapping.
func (m *MOPMapper) BlockBytes() int { return m.blockBytes }

// Map implements AddressMapper.
func (m *MOPMapper) Map(addr uint64) Location {
	_, a := m.block.split(addr)
	groupOff, a := m.group.split(a)
	ch, a := m.ch.split(a)
	bg, a := m.bg.split(a)
	bank, a := m.bank.split(a)
	rank, a := m.rank.split(a)
	colGroup, a := m.colGroup.split(a)
	row := a % m.rows

	return Location{
		BankID: BankID{
			Channel: int(ch),
			Rank:    int(rank),
			Bank:    int(bg)*m.org.BanksPerGroup + int(bank),
		},
		Row: int(row),
		Col: int(colGroup)*m.groupBlocks + int(groupOff),
	}
}

// Addr inverts Map: it returns the smallest physical byte address that
// decodes to loc (the block-aligned address of loc's cache block).
// Out-of-range fields are reduced modulo their dimension, mirroring
// Map's modular decode, so Addr(Map(a)) == a&^(blockBytes-1) for every
// in-capacity address. Adversarial workloads use it to aim accesses at
// specific rows.
func (m *MOPMapper) Addr(loc Location) uint64 {
	o := m.org
	blocksPerRow := uint64(o.RowBytes / m.blockBytes)
	groupsPerRow := blocksPerRow / uint64(m.groupBlocks)

	groupOff := uint64(loc.Col%m.groupBlocks) % uint64(m.groupBlocks)
	colGroup := uint64(loc.Col/m.groupBlocks) % groupsPerRow
	bg := uint64(loc.Bank/o.BanksPerGroup) % uint64(o.BankGroups)
	bank := uint64(loc.Bank%o.BanksPerGroup) % uint64(o.BanksPerGroup)

	a := uint64(loc.Row) % uint64(o.RowsPerBank())
	a = a*groupsPerRow + colGroup
	a = a*uint64(o.RanksPerChannel) + uint64(loc.Rank)%uint64(o.RanksPerChannel)
	a = a*uint64(o.BanksPerGroup) + bank
	a = a*uint64(o.BankGroups) + bg
	a = a*uint64(o.Channels) + uint64(loc.Channel)%uint64(o.Channels)
	a = a*uint64(m.groupBlocks) + groupOff
	return a * uint64(m.blockBytes)
}

// RowStride returns the smallest address increment that changes only the
// row, keeping channel/rank/bank fixed. Useful for constructing adversarial
// (row-conflict) access patterns in tests and workloads.
func (m *MOPMapper) RowStride() uint64 {
	o := m.org
	blocksPerRow := uint64(o.RowBytes / m.blockBytes)
	return uint64(m.blockBytes) * uint64(m.groupBlocks) *
		uint64(o.Channels) * uint64(o.BankGroups) * uint64(o.BanksPerGroup) *
		uint64(o.RanksPerChannel) * (blocksPerRow / uint64(m.groupBlocks))
}

// Validate checks that the mapper's organization is usable.
func (m *MOPMapper) Validate() error {
	if err := m.org.Validate(); err != nil {
		return err
	}
	if m.org.RowBytes%m.blockBytes != 0 {
		return fmt.Errorf("dram: row size %d not a multiple of block size %d", m.org.RowBytes, m.blockBytes)
	}
	if (m.org.RowBytes/m.blockBytes)%m.groupBlocks != 0 {
		return fmt.Errorf("dram: blocks per row not a multiple of MOP group %d", m.groupBlocks)
	}
	return nil
}
