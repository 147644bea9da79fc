package dram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{3 * Nanosecond, "3ns"},
		{FromNanoseconds(46.25), "46.25ns"},
		{7800 * Nanosecond, "7.8us"},
		{64 * Millisecond, "64ms"},
		{-3 * Nanosecond, "-3ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromNanosecondsRoundTrip(t *testing.T) {
	f := func(ns int32) bool {
		return FromNanoseconds(float64(ns)) == Time(ns)*Nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultOrg(t *testing.T) {
	o := DefaultOrg()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := o.BanksPerRank(); got != 16 {
		t.Errorf("BanksPerRank = %d, want 16 (Table 3)", got)
	}
	if got := o.RowsPerBank(); got != 64<<10 {
		t.Errorf("RowsPerBank = %d, want 64K (Table 3)", got)
	}
}

func TestOrgValidateRejectsZeroFields(t *testing.T) {
	o := DefaultOrg()
	o.Channels = 0
	if err := o.Validate(); err == nil {
		t.Error("Validate accepted zero Channels")
	}
}

func TestBankIDFlatIsDenseAndUnique(t *testing.T) {
	o := DefaultOrg()
	o.Channels, o.RanksPerChannel = 2, 2
	seen := make(map[int]BankID)
	for ch := 0; ch < o.Channels; ch++ {
		for rk := 0; rk < o.RanksPerChannel; rk++ {
			for b := 0; b < o.BanksPerRank(); b++ {
				id := BankID{Channel: ch, Rank: rk, Bank: b}
				f := id.Flat(o)
				if f < 0 || f >= o.TotalBanks() {
					t.Fatalf("Flat(%v) = %d out of range", id, f)
				}
				if prev, dup := seen[f]; dup {
					t.Fatalf("Flat collision: %v and %v both map to %d", prev, id, f)
				}
				seen[f] = id
			}
		}
	}
	if len(seen) != o.TotalBanks() {
		t.Errorf("covered %d flat indices, want %d", len(seen), o.TotalBanks())
	}
}

func TestDDR4TimingValues(t *testing.T) {
	tm := DDR4_2400(8)
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if tm.TRC != FromNanoseconds(46.25) {
		t.Errorf("tRC = %v, want 46.25ns (Table 3)", tm.TRC)
	}
	if tm.TFAW != 16*Nanosecond {
		t.Errorf("tFAW = %v, want 16ns (Table 3)", tm.TFAW)
	}
	if tm.T1 != 3*Nanosecond || tm.T2 != 3*Nanosecond {
		t.Errorf("t1,t2 = %v,%v, want 3ns each (§4.2)", tm.T1, tm.T2)
	}
	if tm.TRC < tm.TRAS+tm.TRP {
		t.Errorf("tRC %v < tRAS+tRP %v", tm.TRC, tm.TRAS+tm.TRP)
	}
}

func TestRefreshLatencyForCapacityMatchesExpression1(t *testing.T) {
	// tRFC = 110 * C^0.6 ns (Expression 1).
	for _, gbit := range []int{2, 4, 8, 16, 32, 64, 128} {
		want := 110 * math.Pow(float64(gbit), 0.6)
		got := RefreshLatencyForCapacity(gbit).Nanoseconds()
		if math.Abs(got-want) > 0.01 {
			t.Errorf("tRFC(%dGb) = %.2fns, want %.2fns", gbit, got, want)
		}
	}
	// Sanity anchor: 8Gb should land near DDR4's real 350ns.
	got := RefreshLatencyForCapacity(8).Nanoseconds()
	if got < 300 || got > 450 {
		t.Errorf("tRFC(8Gb) = %.1fns, implausibly far from ~350ns", got)
	}
}

func TestHiRAPairLatencyMatchesPaper(t *testing.T) {
	tm := DDR4_2400(8)
	// §4.2: HiRA refreshes two rows in t1+t2+tRAS = 38ns...
	if got := tm.HiRAPairLatency(); got != 38*Nanosecond {
		t.Errorf("HiRAPairLatency = %v, want 38ns", got)
	}
	// ...instead of tRAS+tRP+tRAS = 78.25ns...
	if got := tm.ConventionalPairLatency(); got != FromNanoseconds(78.25) {
		t.Errorf("ConventionalPairLatency = %v, want 78.25ns", got)
	}
	// ...a 51.4% reduction.
	if got := tm.HiRAPairSavings(); math.Abs(got-0.514) > 0.002 {
		t.Errorf("HiRAPairSavings = %.4f, want 0.514", got)
	}
}

func TestRowsPerREF(t *testing.T) {
	tm := DDR4_2400(8)
	// 64K rows, 8192 REFs per 64ms window -> 8 rows per REF (§5.1.1).
	if got := tm.RowsPerREF(64 << 10); got != 8 {
		t.Errorf("RowsPerREF(64K) = %d, want 8", got)
	}
	if got := tm.RowsPerREF(16 << 10); got != 2 {
		t.Errorf("RowsPerREF(16K) = %d, want 2", got)
	}
}

func TestPeriodicRowInterval(t *testing.T) {
	tm := DDR4_2400(8)
	// §5.1.1: 64K HiRA operations once every ~975ns.
	got := tm.PeriodicRowInterval(64 << 10)
	if got < FromNanoseconds(975) || got > FromNanoseconds(977) {
		t.Errorf("PeriodicRowInterval(64K) = %v, want ~976ns", got)
	}
}

func TestMOPMapperRoundTripProperties(t *testing.T) {
	o := DefaultOrg()
	o.Channels, o.RanksPerChannel = 2, 2
	m := NewMOPMapper(o)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	f := func(raw uint32) bool {
		addr := uint64(raw) * 64 // block aligned
		loc := m.Map(addr)
		return loc.Channel >= 0 && loc.Channel < o.Channels &&
			loc.Rank >= 0 && loc.Rank < o.RanksPerChannel &&
			loc.Bank >= 0 && loc.Bank < o.BanksPerRank() &&
			loc.Row >= 0 && loc.Row < o.RowsPerBank() &&
			loc.Col >= 0 && loc.Col < o.RowBytes/64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMOPMapperAddrInvertsMap: Addr is Map's exact inverse over every
// in-capacity block address, across asymmetric organizations (distinct
// channel/rank counts shake out transposed mixed-radix digits).
func TestMOPMapperAddrInvertsMap(t *testing.T) {
	for _, shape := range []struct{ ch, rk int }{{1, 1}, {2, 1}, {1, 2}, {2, 4}, {4, 2}} {
		o := DefaultOrg()
		o.Channels, o.RanksPerChannel = shape.ch, shape.rk
		m := NewMOPMapper(o)
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		cap := uint64(o.TotalRows()) * uint64(o.RowBytes)
		f := func(raw uint32, off uint8) bool {
			addr := (uint64(raw)*64 + uint64(off)) % cap
			loc := m.Map(addr)
			return m.Addr(loc) == addr&^63
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("org %dch/%drk: %v", shape.ch, shape.rk, err)
		}
		// And the forward direction: Addr must decode back to the
		// location it was built from, for every field at its extremes.
		for _, loc := range []Location{
			{},
			{BankID: BankID{Channel: o.Channels - 1, Rank: o.RanksPerChannel - 1, Bank: o.BanksPerRank() - 1},
				Row: o.RowsPerBank() - 1, Col: o.RowBytes/64 - 1},
			{BankID: BankID{Bank: 5}, Row: 12345, Col: 17},
		} {
			if got := m.Map(m.Addr(loc)); got != loc {
				t.Errorf("org %dch/%drk: Map(Addr(%v)) = %v", shape.ch, shape.rk, loc, got)
			}
		}
	}
}

// mapByDivision is MOPMapper.Map's original decode, one division and
// one modulo per field, kept as the oracle for the precomputed
// shift-and-mask decode.
func mapByDivision(m *MOPMapper, addr uint64) Location {
	o := m.org
	blocksPerRow := uint64(o.RowBytes / m.blockBytes)

	a := addr / uint64(m.blockBytes)
	groupOff := a % uint64(m.groupBlocks)
	a /= uint64(m.groupBlocks)
	ch := a % uint64(o.Channels)
	a /= uint64(o.Channels)
	bg := a % uint64(o.BankGroups)
	a /= uint64(o.BankGroups)
	bank := a % uint64(o.BanksPerGroup)
	a /= uint64(o.BanksPerGroup)
	rank := a % uint64(o.RanksPerChannel)
	a /= uint64(o.RanksPerChannel)
	groupsPerRow := blocksPerRow / uint64(m.groupBlocks)
	colGroup := a % groupsPerRow
	a /= groupsPerRow
	row := a % uint64(o.RowsPerBank())

	return Location{
		BankID: BankID{
			Channel: int(ch),
			Rank:    int(rank),
			Bank:    int(bg)*o.BanksPerGroup + int(bank),
		},
		Row: int(row),
		Col: int(colGroup)*m.groupBlocks + int(groupOff),
	}
}

// TestMOPMapperMatchesDivisionOracle holds the precomputed decode to the
// division formula over random addresses (in capacity and anywhere in
// the 64-bit space) for every channel and rank count in 1..16 — powers
// of two take the shift path, 3, 5 and the rest the division fallback —
// at the simulator's scaled rows per subarray for 8, 32 and 128 Gb
// (512·(C/8)^0.6: 512, 1176, 2702, so only 8 Gb has a power-of-two row
// count). In-capacity addresses must also round-trip through Addr.
func TestMOPMapperMatchesDivisionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, gbit := range []int{8, 32, 128} {
		rows := int(512*math.Pow(float64(gbit)/8, 0.6) + 0.5)
		for ch := 1; ch <= 16; ch++ {
			for rk := 1; rk <= 16; rk++ {
				o := DefaultOrg()
				o.ChipCapacityGbit = gbit
				o.RowsPerSubarray = rows
				o.Channels, o.RanksPerChannel = ch, rk
				m := NewMOPMapper(o)
				capacity := uint64(o.TotalRows()) * uint64(o.RowBytes)
				for i := 0; i < 64; i++ {
					for _, addr := range []uint64{rng.Uint64() % capacity, rng.Uint64()} {
						got, want := m.Map(addr), mapByDivision(m, addr)
						if got != want {
							t.Fatalf("%d Gb %dch/%drk: Map(%#x) = %v, division oracle %v", gbit, ch, rk, addr, got, want)
						}
						if addr < capacity && m.Addr(got) != addr&^63 {
							t.Fatalf("%d Gb %dch/%drk: Addr(Map(%#x)) = %#x", gbit, ch, rk, addr, m.Addr(got))
						}
					}
				}
			}
		}
	}
}

func TestMOPMapperSpreadsBlocksAcrossChannels(t *testing.T) {
	o := DefaultOrg()
	o.Channels = 4
	m := NewMOPMapper(o)
	group := uint64(m.groupBlocks * m.blockBytes)
	var chans []int
	for i := uint64(0); i < 4; i++ {
		chans = append(chans, m.Map(i*group).Channel)
	}
	seen := map[int]bool{}
	for _, c := range chans {
		seen[c] = true
	}
	if len(seen) != 4 {
		t.Errorf("4 consecutive MOP groups map to channels %v, want all distinct", chans)
	}
}

func TestMOPMapperKeepsGroupInRow(t *testing.T) {
	o := DefaultOrg()
	m := NewMOPMapper(o)
	base := m.Map(0)
	for i := 1; i < m.groupBlocks; i++ {
		loc := m.Map(uint64(i * m.blockBytes))
		if loc.BankID != base.BankID || loc.Row != base.Row {
			t.Errorf("block %d left the MOP group: %v vs %v", i, loc, base)
		}
	}
}

func TestMOPMapperDistinctAddressesDistinctLocations(t *testing.T) {
	o := DefaultOrg()
	m := NewMOPMapper(o)
	seen := make(map[Location]uint64)
	// The capacity must be exhausted before any location repeats; check a
	// window of addresses.
	for i := uint64(0); i < 1<<14; i++ {
		addr := i * 64
		loc := m.Map(addr)
		if prev, dup := seen[loc]; dup {
			t.Fatalf("addresses %#x and %#x both map to %v", prev, addr, loc)
		}
		seen[loc] = addr
	}
}
