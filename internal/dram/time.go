// Package dram models the organization, command set, and timing behaviour of
// DDR4 SDRAM devices as seen by a memory controller.
//
// The package provides:
//
//   - Time, a picosecond-resolution simulation clock type;
//   - Org, the channel/rank/bank-group/bank/subarray/row hierarchy;
//   - Timing, a JEDEC-style timing parameter set (DDR4-2400 by default) with
//     the capacity-scaled refresh latency model tRFC = 110·C^0.6 ns used by
//     the HiRA paper (Expression 1);
//   - Command and Kind, the DDR4 command vocabulary relevant to HiRA
//     (ACT, PRE, PREA, RD, WR, REF) plus markers for the two halves of a
//     HiRA sequence; and
//   - MOPMapper, the Table 3 physical-address to DRAM-location mapping.
//
// All simulators and schedulers in this repository express time in
// dram.Time. Their tests check every command they issue against the
// oracles in package dramtest: Verifier enforces the timing
// constraints, treating HiRA's deliberately violated ACT–PRE–ACT
// spacing as the single sanctioned exception, and RefreshAuditor
// proves no row outlives tREFW.
package dram

import "fmt"

// Time is a point in (or duration of) simulated time, in picoseconds.
//
// Picosecond resolution lets DDR4-2400's 833 ps clock, the paper's
// 46.25 ns tRC, and its 3 ns t1/t2 HiRA parameters all be represented
// exactly as integers.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// String formats the time in the most natural unit.
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%gns", float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%gus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%gms", float64(t)/float64(Millisecond))
	}
}

// FromNanoseconds converts a floating-point nanosecond quantity to Time,
// rounding to the nearest picosecond.
func FromNanoseconds(ns float64) Time {
	if ns < 0 {
		return -FromNanoseconds(-ns)
	}
	return Time(ns*float64(Nanosecond) + 0.5)
}

// MaxTime reports the sentinel "never happens" time used by schedulers,
// a value safe to add small durations to.
func MaxTime() Time { return Time(1) << 62 }
