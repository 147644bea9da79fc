package sim

import (
	"fmt"

	"hira/internal/dram"
	"hira/internal/sched"
	"hira/internal/snap"
	"hira/internal/workload"
)

// snapshotMagic identifies version 4 of the full System snapshot
// format: a header-extractable mark section (the cumulative scheduler
// counters, per-core retirement counts and, for forensics systems, the
// forensics tally), so a past-warmup resume reads its warmup mark
// straight from the header instead of restoring a full second System,
// then every layer's state — the refresh engine whichever it is, and
// the forensics ledger when enabled — with the LLC written as a delta
// against an empty cache (only its occupied lines) and the ledger as
// its nonzero rows. The composite format is versioned as a whole: any
// structural change to a layer's codec bumps this string, deltaMagic
// and the trajectory tags with it.
const snapshotMagic = "HIRASYS4"

// deltaMagic identifies version 2 of the differential snapshot format:
// the full snapshot's header (trajectory key, tick, mark section) plus
// the chain linkage (base tick, chain depth), then every small state
// block in full and only the LLC lines, ledger rows and recorder events
// touched since the base checkpoint. A delta restores by applying it on
// top of its base's restored state.
const deltaMagic = "HIRADLT2"

// maxDeltaChain bounds how many deltas may chain atop one full
// snapshot before the writer is forced to emit a full one (and the
// reader rejects longer chains as corrupt). It caps both restore cost
// and the blast radius of a lost base. A full snapshot carries every
// occupied LLC line, so late in a run one costs as much as several
// deltas; 16 links let a figure-length trajectory at hira-server's
// 10k-tick interval (15 interval saves to 150k ticks) chain off its
// first, nearly empty full snapshot.
const maxDeltaChain = 16

// maxSnapshotBytes bounds how large a snapshot RestoreSystem will look
// at, so a mislabeled or hostile checkpoint cannot exhaust memory. Real
// snapshots are tens of KB; a completely full 8 MB LLC encodes to a few
// MB.
const maxSnapshotBytes = 64 << 20

// trajectoryTag versions trajectory keys. It moves with snapshotMagic,
// so checkpoints in an older format live under other keys and are never
// looked up: a stale file indexed at the same tick would otherwise block
// the new format's save.
const trajectoryTag = "traj/v3"

// trajectoryKey names a simulation's state trajectory: every input that
// shapes the machine's state — system shape, refresh policy behavior,
// per-core workload identities wl (mixIdentity.wl), seed, and the
// forensics mode (the ledger never perturbs the simulated machine, but
// its state rides in the checkpoint, so forensics-on and forensics-off
// runs must never share one) — but, unlike simCellKey, not the
// warmup/measure horizons. Two cells that differ only in tick counts
// walk the same trajectory, so a checkpoint taken at tick T under this
// key resumes any of them. The fields are rendered by simCellKey's
// renderers, appendSimShape, appendSimWorkload and
// appendForensicsSuffix, with the horizons left out.
func trajectoryKey(cfg Config, wl string) string {
	return string(appendTrajectory(make([]byte, 0, 160+len(wl)), trajectoryTag, cfg, wl))
}

// Snapshot serializes the machine's complete mutable state — cores and
// their workload stream positions, LLC, memory controller, forensics
// ledger, refresh engine, and system-level carry state — into a
// versioned binary checkpoint. Restoring it with RestoreSystem yields a
// system whose subsequent commands, stats, and IPC are bit-identical to
// this one's (see TestResumeEquivalence). It fails only when a core
// runs a custom workload stream that does not support position
// snapshots.
func (s *System) Snapshot() ([]byte, error) { return s.encodeExact(false, 0, 0) }

// SnapshotDelta serializes a differential checkpoint against the
// trajectory's previous checkpoint at baseTick: the full snapshot's
// header and every small state block in full, but only the LLC lines
// and ledger rows touched since that checkpoint rather than every
// occupied one, so a delta's size tracks the interval's working set.
// depth is the delta's position in its chain (1 = directly atop a full
// snapshot); callers must force a full snapshot once depth would
// exceed maxDeltaChain. The caller owns the touched-state epoch: it
// must ResetTouchedLines only after the delta is durably saved.
func (s *System) SnapshotDelta(baseTick, depth int) ([]byte, error) {
	if baseTick < 0 || baseTick >= s.ticksRun {
		return nil, fmt.Errorf("sim: delta base tick %d not before tick %d", baseTick, s.ticksRun)
	}
	if depth < 1 || depth > maxDeltaChain {
		return nil, fmt.Errorf("sim: delta chain depth %d out of range", depth)
	}
	return s.encodeExact(true, baseTick, depth)
}

// encodeExact encodes a full or delta snapshot in one pass into the
// system's reused scratch writer and returns an exact-length copy: the
// buffer a checkpoint store retains carries no slack, and a warm
// scratch makes the copy the encode's only allocation.
func (s *System) encodeExact(delta bool, baseTick, depth int) ([]byte, error) {
	s.scratch.Reset()
	if err := s.encode(&s.scratch, delta, baseTick, depth); err != nil {
		return nil, err
	}
	return exactCopy(s.scratch.Bytes()), nil
}

// exactCopy returns a copy of b whose capacity is its length.
func exactCopy(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// encode writes a full snapshot, or (delta) a differential one chained
// to baseTick at depth: the header — magic, trajectory key, tick, mark
// section, and a delta's chain linkage — then carry state, buffered
// writebacks, cores, LLC (full or touched lines), controller, forensics
// ledger (full or touched rows), and refresh engine.
func (s *System) encode(w *snap.Writer, delta bool, baseTick, depth int) error {
	if delta {
		w.Raw([]byte(deltaMagic))
	} else {
		w.Raw([]byte(snapshotMagic))
	}
	w.String(s.trajKey())
	w.Int(s.ticksRun)
	s.snapshotMark(w)
	if delta {
		w.Int(baseTick)
		w.Int(depth)
	}
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
	if delta {
		s.llc.SnapshotDelta(w)
	} else {
		s.llc.Snapshot(w)
	}
	s.ctrl.Snapshot(w)
	s.ctrl.SnapshotForensics(w, delta)
	s.engine.Snapshot(w)
	return nil
}

// snapshotMark appends the header mark section: the 14 cumulative
// scheduler counters (via the controller codec), each core's retirement
// count and, behind a presence flag, the forensics tally — exactly the
// state mark()/resultSince need at a warmup boundary.
func (s *System) snapshotMark(w *snap.Writer) {
	sched.SnapshotStats(w, s.ctrl.Stats)
	w.Len(len(s.cores))
	for _, c := range s.cores {
		w.U64(c.Retired)
	}
	w.Bool(s.ctrl.ForensicsEnabled())
	if s.ctrl.ForensicsEnabled() {
		sched.SnapshotForensicsTally(w, s.ctrl.ForensicsTallyNow())
	}
}

// ResetTouchedLines starts a new differential-checkpoint epoch: the
// next SnapshotDelta encodes only LLC lines, ledger rows and recorder
// events touched from here on. Callers reset exactly when a checkpoint
// of the current state is durably stored (that checkpoint is the next
// delta's base).
func (s *System) ResetTouchedLines() {
	s.llc.ResetTouched()
	s.ctrl.ResetForensicsTouched()
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
	// Check the identity before building the machine: a foreign
	// checkpoint costs a key comparison, not a multi-MB System.
	r := snap.NewReader(data[len(snapshotMagic):])
	key := r.String()
	if r.Err() != nil {
		return nil, r.Err()
	}
	want := trajectoryKey(cfg, identify(mix).wl)
	if key != want {
		return nil, fmt.Errorf("sim: snapshot is for a different trajectory (%q)", key)
	}
	s, err := NewSystem(cfg, mix)
	if err != nil {
		return nil, err
	}
	s.trajKeyMemo = want
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
// validation (header-only parses that don't know the shape yet). The
// forensics presence flag is cross-checked against the system by the
// body decoder, which re-reads the same state from the ledger section.
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
	if r.Bool() {
		m.forensics = sched.RestoreForensicsTally(r)
	}
	return m, r.Err()
}

// readSnapshotMark decodes only the header of a full or delta
// snapshot: its trajectory key, tick, and mark. This is what makes a
// past-warmup resume cheap: the warmup mark is 14 counters, per-core
// retirement counts and the forensics tally, not a second restored
// System.
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
// block; s.ticksRun must already hold the snapshot's tick. When delta
// is set the LLC and ledger sections are touched-state deltas applied
// on top of the current (base) state.
func (s *System) restoreBody(r *snap.Reader, delta bool) error {
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
	if delta {
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
	if err := s.ctrl.RestoreForensics(r, delta); err != nil {
		return err
	}
	if s.ctrl.Now() != dram.Time(s.ticksRun)*s.timing.TCK {
		return fmt.Errorf("sim: snapshot clock %v disagrees with tick count %d",
			s.ctrl.Now(), s.ticksRun)
	}
	if err := s.engine.Restore(r, s.ctrl.Now()); err != nil {
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
