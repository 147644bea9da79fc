package workload

import "hira/internal/snap"

// StreamState is implemented by streams whose position can be saved into
// a checkpoint and restored bit-identically: after RestoreState, the
// stream produces exactly the accesses the snapshotted stream would have
// produced next. Every builtin stream kind implements it (the synthetic
// Generator saves its RNG and streaming cursor, the trace player its
// offset, the attacker its class cursors); a custom Source whose Stream
// does not is simply not
// checkpointable, which the sim layer reports as a clean
// cannot-snapshot error rather than a corrupt checkpoint.
type StreamState interface {
	Stream
	// SnapshotState appends the stream's mutable position to w.
	SnapshotState(w *snap.Writer)
	// RestoreState reads a position written by SnapshotState. Corrupt
	// input surfaces through r's sticky error or the returned error;
	// either way the stream must stay safe to use.
	RestoreState(r *snap.Reader) error
}

var (
	_ StreamState = (*Generator)(nil)
	_ StreamState = (*tracePlayer)(nil)
	_ StreamState = (*attackStream)(nil)
)

// SnapshotState implements StreamState: the generator's position is its
// RNG state and streaming cursor (profile parameters and the footprint
// base are reconstructed from the source and seed).
func (g *Generator) SnapshotState(w *snap.Writer) {
	w.U64(g.rng)
	w.U64(g.cursor)
}

// RestoreState implements StreamState. Any cursor is safe: the next
// access re-derives it modulo the footprint mask.
func (g *Generator) RestoreState(r *snap.Reader) error {
	g.rng = r.U64()
	g.cursor = r.U64()
	return r.Err()
}

// SnapshotState implements StreamState for trace playback: the position
// is the replay offset.
func (p *tracePlayer) SnapshotState(w *snap.Writer) {
	w.Int(p.pos)
}

// RestoreState implements StreamState, rejecting offsets outside the
// trace (a corrupt offset would panic the player on its next access).
func (p *tracePlayer) RestoreState(r *snap.Reader) error {
	pos := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if pos < 0 || pos >= len(p.accesses) {
		r.Failf("trace position %d outside [0, %d)", pos, len(p.accesses))
		return r.Err()
	}
	p.pos = pos
	return nil
}

// SnapshotState implements StreamState for the attacker: the position is
// the current aggressor class, each class's row cursor, and the round,
// burst and decoy counters (the eviction classes themselves are rebuilt
// from the spec).
func (s *attackStream) SnapshotState(w *snap.Writer) {
	w.Int(s.class)
	w.Len(len(s.pos))
	for _, p := range s.pos {
		w.Int(p)
	}
	w.Int(s.round)
	w.Int(s.burst)
	w.Int(s.decoy)
}

// RestoreState implements StreamState, validating every cursor against
// the attack's shape: each indexes the eviction classes or decoys on the
// next access, so an out-of-range one would panic the stream.
func (s *attackStream) RestoreState(r *snap.Reader) error {
	a := s.a
	class := r.Int()
	n := r.Len(len(a.addr), 1)
	if r.Err() == nil && n != len(a.addr) {
		r.Failf("attack stream has %d class cursors, want %d", n, len(a.addr))
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = r.Int()
		if r.Err() == nil && (pos[i] < 0 || pos[i] >= a.spec.EvictRows) {
			r.Failf("attack class %d cursor %d out of range", i, pos[i])
		}
	}
	round, burst, decoy := r.Int(), r.Int(), r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	roundLen := len(a.addr) * a.spec.EvictRows
	if class < 0 || class >= len(a.addr) || round < 0 || round > roundLen ||
		(round == roundLen && len(a.dec) == 0) || burst < 0 ||
		(a.spec.BurstAccesses > 0 && burst >= a.spec.BurstAccesses) ||
		decoy < 0 || decoy >= max(len(a.dec), 1) {
		r.Failf("attack stream position out of range")
		return r.Err()
	}
	s.class, s.pos, s.round, s.burst, s.decoy = class, pos, round, burst, decoy
	return nil
}
