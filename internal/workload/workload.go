// Package workload supplies the memory-access streams that drive the
// simulated cores. Workloads are first-class, pluggable Sources with a
// content identity: the synthetic profile generator standing in for the
// paper's SPEC CPU2006 benchmarks (§7), user-defined Profiles with
// arbitrary intensity/locality/footprint/write-fraction parameters, and
// recorded access traces replayed deterministically from a compact
// versioned binary format (trace.go). Streams are deterministic given
// (source, seed) — traces replay identically for every seed — and the
// 125 random 8-core multiprogrammed mixes of the paper are reproducible
// from a single seed.
package workload

import (
	"fmt"
	"strconv"
	"strings"
)

// Stream is a deterministic, endless access stream driving one core.
type Stream interface {
	// Next returns the next access of the stream.
	Next() Access
}

// SeedInvariant is optionally implemented by sources whose stream is
// identical for every seed (recorded traces). Experiment layers may
// canonicalize the seed in such a source's content keys, so the same
// trace dealt to several cores shares one reference cell instead of
// simulating per-core copies.
type SeedInvariant interface {
	SeedInvariant() bool
}

// Source is one workload a simulated core can run.
type Source interface {
	// Key is the source's full content identity — every parameter or
	// byte the stream depends on. Experiment cells hash it, so two
	// sources that could ever produce different streams must have
	// distinct keys, and equal keys must replay identical streams.
	Key() string
	// Label is a short display name for reports.
	Label() string
	// Stream returns the source's access stream. Synthetic sources seed
	// their randomness from seed; recorded traces ignore it and replay
	// the same accesses for every seed.
	Stream(seed uint64) Stream
}

// Profile characterizes the memory behaviour of one benchmark.
type Profile struct {
	Name string
	// MPKI is last-level-cache-filtered memory accesses per
	// kilo-instruction: how hard the benchmark drives DRAM.
	MPKI float64
	// RowLocality is the probability that an access continues a
	// sequential stream (hitting the same or the next DRAM row) instead
	// of jumping to a random location in the footprint.
	RowLocality float64
	// FootprintMB is the size of the touched address space.
	FootprintMB int
	// WriteFrac is the fraction of accesses that are stores.
	WriteFrac float64
}

// spec2006 is the builtin SPEC CPU2006 profile table, with memory
// intensities set from published MPKI characterizations (approximate;
// the evaluation depends on the intensity mix, not exact per-benchmark
// values). It is read-only: SPEC2006Profiles hands out copies.
var spec2006 = []Profile{
	{Name: "mcf", MPKI: 60, RowLocality: 0.25, FootprintMB: 1600, WriteFrac: 0.25},
	{Name: "lbm", MPKI: 30, RowLocality: 0.70, FootprintMB: 400, WriteFrac: 0.45},
	{Name: "milc", MPKI: 25, RowLocality: 0.55, FootprintMB: 600, WriteFrac: 0.30},
	{Name: "libquantum", MPKI: 25, RowLocality: 0.90, FootprintMB: 64, WriteFrac: 0.20},
	{Name: "soplex", MPKI: 25, RowLocality: 0.45, FootprintMB: 250, WriteFrac: 0.25},
	{Name: "GemsFDTD", MPKI: 20, RowLocality: 0.65, FootprintMB: 800, WriteFrac: 0.40},
	{Name: "omnetpp", MPKI: 20, RowLocality: 0.20, FootprintMB: 150, WriteFrac: 0.30},
	{Name: "bwaves", MPKI: 18, RowLocality: 0.75, FootprintMB: 850, WriteFrac: 0.30},
	{Name: "leslie3d", MPKI: 15, RowLocality: 0.70, FootprintMB: 120, WriteFrac: 0.35},
	{Name: "sphinx3", MPKI: 12, RowLocality: 0.55, FootprintMB: 40, WriteFrac: 0.10},
	{Name: "wrf", MPKI: 8, RowLocality: 0.60, FootprintMB: 120, WriteFrac: 0.30},
	{Name: "gcc", MPKI: 6, RowLocality: 0.40, FootprintMB: 80, WriteFrac: 0.35},
	{Name: "astar", MPKI: 5, RowLocality: 0.30, FootprintMB: 180, WriteFrac: 0.25},
	{Name: "cactusADM", MPKI: 5, RowLocality: 0.50, FootprintMB: 400, WriteFrac: 0.35},
	{Name: "zeusmp", MPKI: 5, RowLocality: 0.55, FootprintMB: 500, WriteFrac: 0.35},
	{Name: "xalancbmk", MPKI: 2, RowLocality: 0.30, FootprintMB: 100, WriteFrac: 0.25},
	{Name: "bzip2", MPKI: 3, RowLocality: 0.45, FootprintMB: 100, WriteFrac: 0.30},
	{Name: "hmmer", MPKI: 1, RowLocality: 0.60, FootprintMB: 30, WriteFrac: 0.35},
	{Name: "gobmk", MPKI: 1, RowLocality: 0.35, FootprintMB: 30, WriteFrac: 0.25},
	{Name: "h264ref", MPKI: 1, RowLocality: 0.55, FootprintMB: 60, WriteFrac: 0.25},
	{Name: "perlbench", MPKI: 1, RowLocality: 0.40, FootprintMB: 250, WriteFrac: 0.30},
	{Name: "sjeng", MPKI: 0.5, RowLocality: 0.30, FootprintMB: 170, WriteFrac: 0.25},
	{Name: "namd", MPKI: 0.5, RowLocality: 0.60, FootprintMB: 45, WriteFrac: 0.20},
	{Name: "calculix", MPKI: 0.5, RowLocality: 0.60, FootprintMB: 80, WriteFrac: 0.25},
	{Name: "gromacs", MPKI: 0.7, RowLocality: 0.55, FootprintMB: 25, WriteFrac: 0.30},
	{Name: "dealII", MPKI: 1, RowLocality: 0.50, FootprintMB: 100, WriteFrac: 0.25},
	{Name: "tonto", MPKI: 0.3, RowLocality: 0.50, FootprintMB: 40, WriteFrac: 0.30},
	{Name: "povray", MPKI: 0.1, RowLocality: 0.40, FootprintMB: 5, WriteFrac: 0.25},
	{Name: "gamess", MPKI: 0.1, RowLocality: 0.50, FootprintMB: 10, WriteFrac: 0.25},
}

// SPEC2006Profiles returns a copy of the builtin SPEC CPU2006 profiles,
// so a caller may modify it without affecting later lookups.
func SPEC2006Profiles() []Profile {
	return append([]Profile(nil), spec2006...)
}

// ProfileByName returns the named builtin profile. It reads the shared
// table directly and does not allocate.
func ProfileByName(name string) (Profile, error) {
	for i := range spec2006 {
		if spec2006[i].Name == name {
			return spec2006[i], nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// builtinKeys holds every builtin profile's Key, rendered once at
// package init and read-only after, so mixes of builtin benchmarks never
// format a float. It is keyed by the whole Profile value, so a copy with
// any parameter changed misses it and renders its own key. (Float fields
// compare numerically, which matches their rendered bytes except for
// -0 and NaN; no builtin parameter is zero or NaN.)
var builtinKeys = func() map[Profile]string {
	keys := make(map[Profile]string, len(spec2006))
	for _, p := range spec2006 {
		keys[p] = p.renderKey()
	}
	return keys
}()

// Key implements Source: the profile's full parameter set, not just its
// name, so tuning a benchmark's characterization (MPKI etc.) yields a
// distinct workload identity instead of silently aliasing the old one.
// Builtin profiles answer from builtinKeys.
func (p Profile) Key() string {
	if k, ok := builtinKeys[p]; ok {
		return k
	}
	return p.renderKey()
}

// renderKey renders Key's bytes: exactly fmt's "%s(%g,%g,%d,%g)"
// (shortest round-trip floats, NaN and ±Inf spelled as fmt spells them),
// built with strconv because fmt's formatting machinery costs several
// times as much.
func (p Profile) renderKey() string {
	b := make([]byte, 0, len(p.Name)+48)
	b = append(append(b, p.Name...), '(')
	b = strconv.AppendFloat(b, p.MPKI, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, ','), p.RowLocality, 'g', -1, 64)
	b = strconv.AppendInt(append(b, ','), int64(p.FootprintMB), 10)
	b = strconv.AppendFloat(append(b, ','), p.WriteFrac, 'g', -1, 64)
	return string(append(b, ')'))
}

// Label implements Source.
func (p Profile) Label() string { return p.Name }

// Stream implements Source with a fresh synthetic generator.
func (p Profile) Stream(seed uint64) Stream { return NewGenerator(p, seed) }

// ValidName reports whether a workload name is usable in specs and keys:
// non-empty, at most 64 bytes, and limited to letters, digits, and
// [._-] (so names never collide with key syntax or file paths).
func ValidName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Validate checks a user-supplied profile's parameters. Builtin profiles
// all pass; custom profiles from specs or flags must before use.
func (p Profile) Validate() error {
	if !ValidName(p.Name) {
		return fmt.Errorf("workload: bad profile name %q (want 1-64 chars of [A-Za-z0-9._-])", p.Name)
	}
	if p.MPKI <= 0 || p.MPKI > 1000 {
		return fmt.Errorf("workload: profile %s: mpki %g outside (0, 1000]", p.Name, p.MPKI)
	}
	if p.RowLocality < 0 || p.RowLocality > 1 {
		return fmt.Errorf("workload: profile %s: row locality %g outside [0, 1]", p.Name, p.RowLocality)
	}
	if p.FootprintMB < 1 || p.FootprintMB > 1<<16 {
		return fmt.Errorf("workload: profile %s: footprint %d MB outside [1, 65536]", p.Name, p.FootprintMB)
	}
	if p.WriteFrac < 0 || p.WriteFrac > 1 {
		return fmt.Errorf("workload: profile %s: write fraction %g outside [0, 1]", p.Name, p.WriteFrac)
	}
	return nil
}

// Access is one memory access of a trace.
type Access struct {
	// Addr is the physical byte address (cache-block aligned).
	Addr uint64
	// Write marks stores.
	Write bool
	// Gap is the number of non-memory instructions executed before this
	// access.
	Gap int
}

// Generator deterministically produces a benchmark's access stream.
type Generator struct {
	prof   Profile
	rng    uint64
	cursor uint64 // current streaming position
	base   uint64 // footprint base address
	mask   uint64 // footprint size - 1 (power of two)
	gapAvg float64
}

// NewGenerator returns a trace generator for the profile. Each core's
// footprint is placed at a seed-dependent base so that co-running cores
// touch disjoint regions (as separate processes would).
func NewGenerator(p Profile, seed uint64) *Generator {
	if p.MPKI <= 0 {
		p.MPKI = 0.05
	}
	foot := uint64(p.FootprintMB) << 20
	// Round footprint up to a power of two for cheap wrapping.
	size := uint64(1) << 20
	for size < foot {
		size <<= 1
	}
	// Process regions are spaced by the larger of 16 GiB and the rounded
	// footprint, so co-running cores always touch disjoint regions even at
	// Validate's 64 GiB ceiling. Footprints <= 16 GiB keep the historical
	// (seed%64)<<34 placement bit-for-bit.
	stride := uint64(1) << 34
	if size > stride {
		stride = size
	}
	g := &Generator{
		prof:   p,
		rng:    splitmix(seed ^ 0x9e3779b97f4a7c15),
		base:   (seed % 64) * stride,
		mask:   size - 1,
		gapAvg: 1000 / p.MPKI,
	}
	g.cursor = g.randAddr()
	return g
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (g *Generator) next() uint64 {
	g.rng = splitmix(g.rng)
	return g.rng
}

func (g *Generator) randAddr() uint64 {
	return g.base + (g.next()&g.mask)&^63
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// Next returns the next access in the stream.
func (g *Generator) Next() Access {
	r := g.next()
	if float64(r%1000)/1000 < g.prof.RowLocality {
		// Continue the sequential stream.
		g.cursor = g.base + ((g.cursor-g.base+64)&g.mask)&^63
	} else {
		g.cursor = g.randAddr()
	}
	write := float64(g.next()%1000)/1000 < g.prof.WriteFrac
	// Gap jitter: uniform in [0.5, 1.5] x average.
	jitter := 0.5 + float64(g.next()%1000)/1000
	gap := int(g.gapAvg * jitter)
	return Access{Addr: g.cursor, Write: write, Gap: gap}
}

// Mix is one multiprogrammed workload: a benchmark per core.
type Mix struct {
	ID       int
	Profiles []Profile
}

// String lists the mix's benchmark names.
func (m Mix) String() string {
	s := fmt.Sprintf("mix%03d[", m.ID)
	for i, p := range m.Profiles {
		if i > 0 {
			s += ","
		}
		s += p.Name
	}
	return s + "]"
}

// Mixes returns n deterministic multiprogrammed mixes of cores benchmarks
// each, randomly drawn from the SPEC CPU2006 profile set (the paper uses
// 125 such 8-core mixes).
func Mixes(n, cores int, seed uint64) []Mix {
	profiles := spec2006
	rng := splitmix(seed)
	out := make([]Mix, n)
	for i := range out {
		m := Mix{ID: i, Profiles: make([]Profile, cores)}
		for c := range m.Profiles {
			rng = splitmix(rng)
			m.Profiles[c] = profiles[rng%uint64(len(profiles))]
		}
		out[i] = m
	}
	return out
}

// SourceMix is one multiprogrammed workload over arbitrary sources: a
// Source per core. It generalizes Mix beyond builtin profiles to custom
// profiles and recorded traces.
type SourceMix struct {
	ID      int
	Sources []Source
}

// String lists the mix's source labels.
func (m SourceMix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mix%03d[", m.ID)
	for i, s := range m.Sources {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.Label())
	}
	b.WriteByte(']')
	return b.String()
}

// Sources converts a profile mix into the general source form.
func (m Mix) Sources() SourceMix {
	out := SourceMix{ID: m.ID, Sources: make([]Source, len(m.Profiles))}
	for i, p := range m.Profiles {
		out.Sources[i] = p
	}
	return out
}

// RoundRobinMixes builds n mixes of cores sources each by dealing srcs
// round-robin across cores and mixes: mix i, core j runs
// srcs[(i*cores+j) % len(srcs)]. The rule is part of the CLI/service
// contract — `hira-sim -trace` and clients that expand trace lists into
// explicit spec mixes (RoundRobinNames) assign identically so their
// sweeps share engine cells. Non-positive counts or an empty source
// list yield nil.
func RoundRobinMixes(srcs []Source, n, cores int) []SourceMix {
	if len(srcs) == 0 || n < 1 || cores < 1 {
		return nil
	}
	out := make([]SourceMix, n)
	for i := range out {
		out[i] = SourceMix{ID: i, Sources: make([]Source, cores)}
		for j := 0; j < cores; j++ {
			out[i].Sources[j] = srcs[roundRobinIndex(i, j, cores, len(srcs))]
		}
	}
	return out
}

// RoundRobinNames is RoundRobinMixes' deal rule over workload names —
// the form clients use when expanding a trace list into explicit
// service spec mixes. Both functions share roundRobinIndex, so the two
// expansions can never drift apart.
func RoundRobinNames(names []string, n, cores int) [][]string {
	if len(names) == 0 || n < 1 || cores < 1 {
		return nil
	}
	out := make([][]string, n)
	for i := range out {
		out[i] = make([]string, cores)
		for j := 0; j < cores; j++ {
			out[i][j] = names[roundRobinIndex(i, j, cores, len(names))]
		}
	}
	return out
}

// roundRobinIndex is the single source of truth for the deal rule.
func roundRobinIndex(mix, core, cores, n int) int {
	return (mix*cores + core) % n
}
