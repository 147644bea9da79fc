package sim

import (
	"fmt"
	"strconv"

	"hira/internal/dram"
	"hira/internal/sched"
	"hira/internal/snap"
	"hira/internal/workload"
)

// snapshotMagic identifies version 3 of the full System snapshot
// format: a header-extractable mark section (the cumulative scheduler
// counters and per-core retirement counts), so a past-warmup resume
// reads its warmup mark straight from the header instead of restoring a
// full second System, then every layer's state, with the LLC written as
// a delta against an empty cache (only its occupied lines). The
// composite format is versioned as a whole: any structural change to a
// layer's codec bumps this string, and the trajectory tags with it.
const snapshotMagic = "HIRASYS3"

// deltaMagic identifies version 1 of the differential snapshot format:
// the full snapshot's header (trajectory key, tick, mark section) plus
// the chain linkage (base tick, chain depth), then every small state
// block in full and only the LLC lines touched since the base
// checkpoint. A delta restores by applying it on top of its base's
// restored state.
const deltaMagic = "HIRADLT1"

// maxDeltaChain bounds how many deltas may chain atop one full
// snapshot before the writer is forced to emit a full one (and the
// reader rejects longer chains as corrupt). It caps both restore cost
// and the blast radius of a lost base.
const maxDeltaChain = 8

// maxSnapshotBytes bounds how large a snapshot RestoreSystem will look
// at, so a mislabeled or hostile checkpoint cannot exhaust memory. Real
// snapshots are tens of KB; a completely full 8 MB LLC encodes to a few
// MB.
const maxSnapshotBytes = 64 << 20

// trajectoryTag versions trajectory keys (and, behind "sim ", sim plan
// groups). It moves with snapshotMagic, so checkpoints in an older
// format live under other keys and are never looked up: a stale file
// indexed at the same tick would otherwise block the new format's save.
const trajectoryTag = "traj/v2"

// trajectoryKey names a simulation's state trajectory: every input that
// shapes the machine's evolution — system shape, refresh policy
// behavior, per-core workload identities wl (mixIdentity.wl), and seed —
// but, unlike simCellKey, not the warmup/measure horizons. Two cells
// that differ only in tick counts walk the same trajectory, so a
// checkpoint taken at tick T under this key resumes any of them. The
// fields are rendered by simCellKey's renderers, appendSimShape and
// appendSimWorkload, with the horizons left out.
func trajectoryKey(cfg Config, wl string) string {
	b := appendSimShape(append(make([]byte, 0, 160+len(wl)), trajectoryTag...), cfg)
	return string(appendSimWorkload(b, cfg, wl))
}

// checkpointableEngine is the capability Snapshot and RestoreSystem
// require of the refresh engine. The HiRA-MC engine implements it; the
// mitigation zoo engines deliberately do not (their tracker state is
// transient by design), so systems running them simulate from tick zero.
type checkpointableEngine interface {
	Snapshot(w *snap.Writer)
	Restore(r *snap.Reader, now dram.Time) error
}

// Snapshot serializes the machine's complete mutable state — cores and
// their workload stream positions, LLC, memory controller, refresh
// engine, and system-level carry state — into a versioned binary
// checkpoint. Restoring it with RestoreSystem yields a system whose
// subsequent commands, stats, and IPC are bit-identical to this one's
// (see TestResumeEquivalence). It fails only when a core runs a custom
// workload stream that does not support position snapshots.
func (s *System) Snapshot() ([]byte, error) {
	ce, ok := s.engine.(checkpointableEngine)
	if !ok {
		return nil, fmt.Errorf("sim: refresh engine %T is not checkpointable", s.engine)
	}
	w := snap.NewWriterSize(s.SnapshotSize())
	w.Raw([]byte(snapshotMagic))
	w.String(s.trajKey())
	w.Int(s.ticksRun)
	s.snapshotMark(w)
	if err := s.snapshotBody(w, ce, false); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// snapshotMark appends the header mark section: the 14 cumulative
// scheduler counters (via the controller codec) and each core's
// retirement count — exactly the state mark()/resultSince need at a
// warmup boundary. The forensics tally is deliberately absent: cells
// with forensics enabled never checkpoint (runSimPass disables the
// snapshot store for them), so every stored snapshot's tally is zero.
func (s *System) snapshotMark(w *snap.Writer) {
	sched.SnapshotStats(w, s.ctrl.Stats)
	w.Len(len(s.cores))
	for _, c := range s.cores {
		w.U64(c.Retired)
	}
}

// snapshotBody appends everything after the header: carry state,
// buffered writebacks, cores, LLC (full or touched-lines delta),
// controller, and refresh engine.
func (s *System) snapshotBody(w *snap.Writer, ce checkpointableEngine, llcDelta bool) error {
	w.F64(s.instrBudget)
	for _, b := range s.blocked {
		w.Bool(b)
	}
	w.Len(s.wb.len())
	for i := 0; i < s.wb.n; i++ {
		req := s.wb.buf[(s.wb.head+i)%len(s.wb.buf)]
		w.Int(req.Loc.Channel)
		w.Int(req.Loc.Rank)
		w.Int(req.Loc.Bank)
		w.Int(req.Loc.Row)
		w.Int(req.Loc.Col)
		w.Int(req.Core)
	}
	for _, c := range s.cores {
		if err := c.Snapshot(w); err != nil {
			return err
		}
	}
	if llcDelta {
		s.llc.SnapshotDelta(w)
	} else {
		s.llc.Snapshot(w)
	}
	s.ctrl.Snapshot(w)
	ce.Snapshot(w)
	return nil
}

// SnapshotDelta serializes a differential checkpoint against the
// trajectory's previous checkpoint at baseTick: the full snapshot's
// header and every small state block in full, but only the LLC lines
// touched since that checkpoint rather than every occupied one, so a
// delta's size tracks the interval's working set. depth is
// the delta's position in its chain (1 = directly atop a full
// snapshot); callers must force a full snapshot once depth would
// exceed maxDeltaChain. The caller owns the touched-line epoch: it
// must ResetTouched only after the delta is durably saved.
func (s *System) SnapshotDelta(baseTick, depth int) ([]byte, error) {
	ce, ok := s.engine.(checkpointableEngine)
	if !ok {
		return nil, fmt.Errorf("sim: refresh engine %T is not checkpointable", s.engine)
	}
	if baseTick < 0 || baseTick >= s.ticksRun {
		return nil, fmt.Errorf("sim: delta base tick %d not before tick %d", baseTick, s.ticksRun)
	}
	if depth < 1 || depth > maxDeltaChain {
		return nil, fmt.Errorf("sim: delta chain depth %d out of range", depth)
	}
	w := snap.NewWriterSize(s.SnapshotDeltaSize())
	w.Raw([]byte(deltaMagic))
	w.String(s.trajKey())
	w.Int(s.ticksRun)
	s.snapshotMark(w)
	w.Int(baseTick)
	w.Int(depth)
	if err := s.snapshotBody(w, ce, true); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// ResetTouchedLines starts a new differential-checkpoint epoch: the
// next SnapshotDelta encodes only LLC lines touched from here on.
// Callers reset exactly when a checkpoint of the current state is
// durably stored (that checkpoint is the next delta's base).
func (s *System) ResetTouchedLines() { s.llc.ResetTouched() }

// SnapshotSize returns an upper bound on Snapshot's encoded size for
// the current state, so the encoder pre-sizes its buffer and never pays
// a growth reallocation.
func (s *System) SnapshotSize() int { return s.encodedSize(s.llc.SnapshotSize()) }

// SnapshotDeltaSize is SnapshotSize for SnapshotDelta.
func (s *System) SnapshotDeltaSize() int { return s.encodedSize(s.llc.SnapshotDeltaSize()) }

// encodedSize bounds a full or delta snapshot whose LLC section is at
// most llcBytes long; the delta's chain linkage is counted for both.
func (s *System) encodedSize(llcBytes int) int {
	n := len(deltaMagic) + 10 + len(s.trajKey()) // magic + key
	n += 10 + 14*10 + 10 + 10*len(s.cores)       // tick + mark section
	n += 10 + 10 + 10 + len(s.blocked)           // chain linkage + budget + blocked
	n += 10 + 60*s.wb.len()                      // buffered writebacks
	for _, c := range s.cores {
		n += c.SnapshotSize()
	}
	n += llcBytes
	n += s.ctrl.SnapshotSize()
	if se, ok := s.engine.(interface{ SnapshotSize() int }); ok {
		n += se.SnapshotSize()
	} else {
		n += 1 << 16
	}
	return n
}

// aloneMagic identifies version 2 of the alone-run snapshot format,
// whose LLC section carries only occupied lines (see snapshotMagic).
const aloneMagic = "HIRAALN2"

// aloneTrajectoryKey names an alone-IPC reference run's trajectory: its
// workload identity (the source's Key) and seed, horizon-free for the
// same reason trajectoryKey is.
func aloneTrajectoryKey(srcKey string, seed uint64) string {
	return string(appendAloneKey(make([]byte, 0, 48+len(srcKey)), aloneTrajectoryTag, srcKey, seed))
}

// aloneTrajectoryTag versions alone trajectory keys (and, behind
// "alone ", alone plan groups). It moves with aloneMagic, for the
// reason trajectoryTag moves with snapshotMagic.
const aloneTrajectoryTag = "alonetraj/v2"

// appendAloneKey renders the fields alone-cell and alone-trajectory keys
// share after tag: the workload identity and the seed.
func appendAloneKey(b []byte, tag, srcKey string, seed uint64) []byte {
	b = append(append(append(b, tag...), " wl="...), srcKey...)
	return strconv.AppendUint(append(b, " seed="...), seed, 10)
}

// Snapshot serializes the alone-run's state: carry budget, core (with
// its stream position), LLC, and in-flight fixed-latency loads.
func (a *aloneRun) Snapshot() ([]byte, error) {
	// Pre-sized: magic + key + tick + budget, core, LLC, in-flight loads.
	w := snap.NewWriterSize(len(aloneMagic) + 10 + len(a.key) + 10 + 8 +
		a.c.SnapshotSize() + a.mem.llc.SnapshotSize() + 10 + 20*len(a.mem.inflight))
	w.Raw([]byte(aloneMagic))
	w.String(a.key)
	w.Int(a.tick)
	w.F64(a.budget)
	if err := a.c.Snapshot(w); err != nil {
		return nil, err
	}
	a.mem.llc.Snapshot(w)
	w.Len(len(a.mem.inflight))
	for _, req := range a.mem.inflight {
		w.U64(req.token)
		w.Int(req.left)
	}
	return w.Bytes(), nil
}

// restoreAloneRun rebuilds the alone-run for (src, seed) and restores
// the checkpoint into it; any mismatch, corruption, or truncation is an
// error the cell runner treats as a miss.
func restoreAloneRun(src workload.Source, seed uint64, data []byte) (*aloneRun, error) {
	if len(data) > maxSnapshotBytes {
		return nil, fmt.Errorf("sim: snapshot exceeds the %d-byte limit", maxSnapshotBytes)
	}
	if len(data) < len(aloneMagic) || string(data[:len(aloneMagic)]) != aloneMagic {
		return nil, fmt.Errorf("sim: not a %s snapshot", aloneMagic)
	}
	a := newAloneRun(src, seed)
	r := snap.NewReader(data[len(aloneMagic):])
	if key := r.String(); key != a.key {
		return nil, fmt.Errorf("sim: snapshot is for a different alone trajectory (%q)", key)
	}
	a.tick = r.Int()
	a.budget = r.F64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if a.tick < 0 {
		return nil, fmt.Errorf("sim: snapshot tick count %d out of range", a.tick)
	}
	if !(a.budget >= 0 && a.budget < 8) {
		return nil, fmt.Errorf("sim: snapshot instruction budget %v out of range", a.budget)
	}
	if err := a.c.Restore(r); err != nil {
		return nil, err
	}
	if err := a.mem.llc.Restore(r); err != nil {
		return nil, err
	}
	n := r.Len(a.c.Window, 2)
	for i := 0; i < n; i++ {
		req := aloneReq{token: r.U64(), left: r.Int()}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if req.left < 1 || req.left > a.mem.latencyTicks {
			return nil, fmt.Errorf("sim: in-flight load %d latency %d out of range", i, req.left)
		}
		a.mem.inflight = append(a.mem.inflight, req)
	}
	r.Done()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// RestoreSystem rebuilds the machine for (cfg, mix) and restores the
// checkpoint into it. The snapshot embeds its trajectory key, so
// restoring into a differently configured system — or a hash-colliding
// checkpoint — fails cleanly, as does any corrupt or truncated input:
// callers treat every error as a cache miss and simulate from scratch.
func RestoreSystem(cfg Config, mix workload.SourceMix, data []byte) (*System, error) {
	if len(data) > maxSnapshotBytes {
		return nil, fmt.Errorf("sim: snapshot exceeds the %d-byte limit", maxSnapshotBytes)
	}
	if !hasMagic(data, snapshotMagic) {
		return nil, fmt.Errorf("sim: not a %s snapshot", snapshotMagic)
	}
	s, err := NewSystem(cfg, mix)
	if err != nil {
		return nil, err
	}
	r := snap.NewReader(data[len(snapshotMagic):])
	if key := r.String(); key != s.trajKey() {
		return nil, fmt.Errorf("sim: snapshot is for a different trajectory (%q)", key)
	}
	s.ticksRun = r.Int()
	if _, err := readMarkSection(r, cfg.Cores); err != nil {
		return nil, err
	}
	if err := s.restoreBody(r, false); err != nil {
		return nil, err
	}
	return s, nil
}

// hasMagic reports whether data starts with the given format magic.
func hasMagic(data []byte, magic string) bool {
	return len(data) >= len(magic) && string(data[:len(magic)]) == magic
}

// maxMarkCores bounds the mark section's core count while parsing
// headers whose system shape is not yet known.
const maxMarkCores = 4096

// readMarkSection reads the header mark section written by
// snapshotMark. cores is the expected core count; pass -1 to skip
// validation (header-only parses that don't know the shape yet).
func readMarkSection(r *snap.Reader, cores int) (runMark, error) {
	m := runMark{sched: sched.RestoreStats(r)}
	n := r.Len(maxMarkCores, 1)
	if r.Err() != nil {
		return runMark{}, r.Err()
	}
	if cores >= 0 && n != cores {
		r.Failf("mark section has %d cores, system has %d", n, cores)
		return runMark{}, r.Err()
	}
	m.retired = make([]uint64, n)
	for i := range m.retired {
		m.retired[i] = r.U64()
	}
	return m, r.Err()
}

// readSnapshotMark decodes only the header of a full or delta
// snapshot: its trajectory key, tick, and mark. This is what makes a
// past-warmup resume cheap: the warmup mark is 14 counters plus per-core
// retirement counts, not a second restored System.
func readSnapshotMark(data []byte, cores int) (key string, tick int, m runMark, err error) {
	if len(data) > maxSnapshotBytes {
		return "", 0, runMark{}, fmt.Errorf("sim: snapshot exceeds the %d-byte limit", maxSnapshotBytes)
	}
	if !hasMagic(data, snapshotMagic) && !hasMagic(data, deltaMagic) {
		return "", 0, runMark{}, fmt.Errorf("sim: not a %s snapshot", snapshotMagic)
	}
	r := snap.NewReader(data[len(snapshotMagic):])
	key = r.String()
	tick = r.Int()
	m, err = readMarkSection(r, cores)
	if err != nil {
		return "", 0, runMark{}, err
	}
	if tick < 0 {
		return "", 0, runMark{}, fmt.Errorf("sim: snapshot tick count %d out of range", tick)
	}
	return key, tick, m, nil
}

// readDeltaHeader parses a differential snapshot's identity and chain
// linkage without decoding any machine state.
func readDeltaHeader(data []byte) (key string, tick, baseTick, depth int, err error) {
	if len(data) > maxSnapshotBytes {
		return "", 0, 0, 0, fmt.Errorf("sim: snapshot exceeds the %d-byte limit", maxSnapshotBytes)
	}
	if !hasMagic(data, deltaMagic) {
		return "", 0, 0, 0, fmt.Errorf("sim: not a %s snapshot", deltaMagic)
	}
	r := snap.NewReader(data[len(deltaMagic):])
	key = r.String()
	tick = r.Int()
	if _, err := readMarkSection(r, -1); err != nil {
		return "", 0, 0, 0, err
	}
	baseTick = r.Int()
	depth = r.Int()
	if err := r.Err(); err != nil {
		return "", 0, 0, 0, err
	}
	if baseTick < 0 || tick <= baseTick {
		return "", 0, 0, 0, fmt.Errorf("sim: delta tick %d does not follow base %d", tick, baseTick)
	}
	if depth < 1 || depth > maxDeltaChain {
		return "", 0, 0, 0, fmt.Errorf("sim: delta chain depth %d out of range", depth)
	}
	return key, tick, baseTick, depth, nil
}

// applySystemDelta applies a differential snapshot on top of s, which
// must hold the restored state of the delta's base checkpoint (its
// tick is cross-checked against the delta's recorded base). On success
// s is the machine at the delta's tick, bit-identical to one restored
// from a full snapshot taken there.
func applySystemDelta(s *System, data []byte) error {
	if len(data) > maxSnapshotBytes {
		return fmt.Errorf("sim: snapshot exceeds the %d-byte limit", maxSnapshotBytes)
	}
	if !hasMagic(data, deltaMagic) {
		return fmt.Errorf("sim: not a %s snapshot", deltaMagic)
	}
	r := snap.NewReader(data[len(deltaMagic):])
	if key := r.String(); key != s.trajKey() {
		return fmt.Errorf("sim: delta is for a different trajectory (%q)", key)
	}
	tick := r.Int()
	if _, err := readMarkSection(r, len(s.cores)); err != nil {
		return err
	}
	baseTick := r.Int()
	depth := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if depth < 1 || depth > maxDeltaChain {
		return fmt.Errorf("sim: delta chain depth %d out of range", depth)
	}
	if baseTick != s.ticksRun {
		return fmt.Errorf("sim: delta chains to tick %d, system is at %d", baseTick, s.ticksRun)
	}
	if tick <= baseTick {
		return fmt.Errorf("sim: delta tick %d does not follow base %d", tick, baseTick)
	}
	s.ticksRun = tick
	return s.restoreBody(r, true)
}

// restoreBody reads everything snapshotBody wrote, validating each
// block; s.ticksRun must already hold the snapshot's tick. When
// llcDelta is set the LLC section is a touched-lines delta applied on
// top of the LLC's current (base) state.
func (s *System) restoreBody(r *snap.Reader, llcDelta bool) error {
	cfg := s.cfg
	// The controller clock advances exactly one tCK per tick; a snapshot
	// violating that is corrupt (and huge tick counts would overflow the
	// cross-check).
	if s.ticksRun < 0 || int64(s.ticksRun) > (int64(1)<<53)/int64(s.timing.TCK) {
		return fmt.Errorf("sim: snapshot tick count %d out of range", s.ticksRun)
	}
	s.instrBudget = r.F64()
	if err := r.Err(); err != nil {
		return err
	}
	// The fractional instruction budget lives in [0, 1); anything larger
	// would hand a restored core an absurd slot budget.
	if !(s.instrBudget >= 0 && s.instrBudget < 8) {
		return fmt.Errorf("sim: snapshot instruction budget %v out of range", s.instrBudget)
	}
	for i := range s.blocked {
		s.blocked[i] = r.Bool()
	}
	s.wb = wbRing{}
	wbN := r.Len(maxSnapshotBytes, 5)
	for i := 0; i < wbN; i++ {
		var req sched.Request
		req.Write = true
		req.Loc.Channel = r.Int()
		req.Loc.Rank = r.Int()
		req.Loc.Bank = r.Int()
		req.Loc.Row = r.Int()
		req.Loc.Col = r.Int()
		req.Core = r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if req.Loc.Channel < 0 || req.Loc.Channel >= s.org.Channels ||
			req.Loc.Rank < 0 || req.Loc.Rank >= s.org.RanksPerChannel ||
			req.Loc.Bank < 0 || req.Loc.Bank >= s.org.BanksPerRank() ||
			req.Loc.Row < 0 || req.Loc.Row >= s.org.RowsPerBank() ||
			req.Loc.Col < 0 ||
			req.Core < 0 || req.Core >= cfg.Cores {
			return fmt.Errorf("sim: buffered writeback %d out of range", i)
		}
		s.wb.push(req)
	}
	for _, c := range s.cores {
		if err := c.Restore(r); err != nil {
			return err
		}
	}
	if llcDelta {
		if err := s.llc.ApplyDelta(r); err != nil {
			return err
		}
	} else {
		if err := s.llc.Restore(r); err != nil {
			return err
		}
	}
	if err := s.ctrl.Restore(r, cfg.Cores); err != nil {
		return err
	}
	if s.ctrl.Now() != dram.Time(s.ticksRun)*s.timing.TCK {
		return fmt.Errorf("sim: snapshot clock %v disagrees with tick count %d",
			s.ctrl.Now(), s.ticksRun)
	}
	ce, ok := s.engine.(checkpointableEngine)
	if !ok {
		return fmt.Errorf("sim: refresh engine %T is not checkpointable", s.engine)
	}
	if err := ce.Restore(r, s.ctrl.Now()); err != nil {
		return err
	}
	r.Done()
	if err := r.Err(); err != nil {
		return err
	}
	for i := range s.idleDirty {
		s.idleDirty[i] = true
	}
	return nil
}
