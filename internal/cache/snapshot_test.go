package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"hira/internal/snap"
)

// fill drives n pseudo-random accesses over a span-byte address range.
func fill(c *Cache, rng *rand.Rand, n int, span uint64) {
	for i := 0; i < n; i++ {
		c.Access(rng.Uint64()%span, rng.Intn(4) == 0)
	}
}

// countValid recounts valid lines (nonzero stamps) from scratch.
func countValid(c *Cache) int {
	n := 0
	for _, l := range c.lines {
		if l.stamp != 0 {
			n++
		}
	}
	return n
}

func snapshotOf(c *Cache) []byte {
	w := snap.NewWriter()
	c.Snapshot(w)
	return w.Bytes()
}

// TestRestoreZeroesUnoccupiedLines proves a full snapshot is a delta
// against an empty cache: restoring it over a cache holding unrelated
// state reproduces the source exactly — tags, flags and each set's LRU
// order, which the restored cache holds as canonical stamps (rank + 1)
// — every line the source never filled back in its zero state, and the
// occupancy count with it.
func TestRestoreZeroesUnoccupiedLines(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := MustNew(1<<16, 8, 64) // 1024 lines
	fill(src, rng, 300, 1<<20)
	if occ := src.Occupied(); occ == 0 || occ == len(src.lines) || occ != countValid(src) {
		t.Fatalf("source occupancy %d (recount %d) of %d lines, want partial and exact",
			occ, countValid(src), len(src.lines))
	}
	data := snapshotOf(src)

	dst := MustNew(1<<16, 8, 64)
	fill(dst, rng, 20000, 1<<24) // every line valid, most dirty
	if dst.Occupied() != len(dst.lines) {
		t.Fatalf("destination occupancy %d, want all %d lines", dst.Occupied(), len(dst.lines))
	}
	r := snap.NewReader(data)
	if err := dst.Restore(r); err != nil {
		t.Fatal(err)
	}
	r.Done()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	for i, sl := range src.lines {
		dl := dst.lines[i]
		if sl.stamp != 0 {
			if dl.tag != sl.tag || dl.stamp != uint64(src.rank(i))+1 || dst.dirty[i] != src.dirty[i] {
				t.Fatalf("line %d: restored (%#x, %d, %v), source (%#x, %d, %v)", i,
					dl.tag, dl.stamp, dst.dirty[i], sl.tag, sl.stamp, src.dirty[i])
			}
			continue
		}
		if dl != (line{}) || dst.dirty[i] {
			t.Fatalf("unoccupied line %d restored non-zero: (%#x, %d, %v)", i,
				dl.tag, dl.stamp, dst.dirty[i])
		}
	}
	if dst.Occupied() != src.Occupied() || dst.stamp != src.stamp || dst.Stats != src.Stats || dst.Touched() != 0 {
		t.Fatalf("restored occupancy/stamp/stats/touched (%d, %d, %+v, %d), source (%d, %d, %+v, 0)",
			dst.Occupied(), dst.stamp, dst.Stats, dst.Touched(), src.Occupied(), src.stamp, src.Stats)
	}
	if !bytes.Equal(snapshotOf(dst), data) {
		t.Fatal("re-snapshotting the restored cache changed the bytes")
	}

	// Both caches now evolve identically.
	for i := 0; i < 2000; i++ {
		addr, write := rng.Uint64()%(1<<20), rng.Intn(4) == 0
		if a, b := src.Access(addr, write), dst.Access(addr, write); a != b {
			t.Fatalf("access %d diverged after restore: %+v vs %+v", i, a, b)
		}
	}
	if dst.Occupied() != countValid(dst) {
		t.Fatalf("occupancy %d drifted from recount %d", dst.Occupied(), countValid(dst))
	}
}

// TestDeltaOnRestoredBase proves the delta and full forms share one
// codec: a delta applied over a restored base reproduces the source's
// full snapshot byte for byte, occupancy included.
func TestDeltaOnRestoredBase(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := MustNew(1<<16, 8, 64)
	fill(src, rng, 200, 1<<20)
	base := snapshotOf(src)
	src.ResetTouched()
	fill(src, rng, 500, 1<<20)
	w := snap.NewWriter()
	src.SnapshotDelta(w)

	dst := MustNew(1<<16, 8, 64)
	if err := dst.Restore(snap.NewReader(base)); err != nil {
		t.Fatal(err)
	}
	if err := dst.ApplyDelta(snap.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotOf(dst), snapshotOf(src)) {
		t.Fatal("base + delta diverged from the source")
	}
	if dst.Occupied() != src.Occupied() {
		t.Fatalf("occupancy %d after delta, source %d", dst.Occupied(), src.Occupied())
	}
	// Both caches now evolve identically: the delta restored every
	// set's LRU order, untouched lines below the touched ones.
	for i := 0; i < 2000; i++ {
		addr, write := rng.Uint64()%(1<<20), rng.Intn(4) == 0
		if a, b := src.Access(addr, write), dst.Access(addr, write); a != b {
			t.Fatalf("access %d diverged after base + delta: %+v vs %+v", i, a, b)
		}
	}
}

// TestRestoreRejectsCorruptLines covers the validating decoder:
// out-of-order or out-of-range line indices, overflowing tags, and
// ranks that are out of range or not canonical for their set are
// errors, never silent state.
func TestRestoreRejectsCorruptLines(t *testing.T) {
	header := func(w *snap.Writer, n int) {
		for i := 0; i < 4; i++ { // stamp, hits, misses, writebacks
			w.U64(0)
		}
		w.Len(n)
	}
	line := func(w *snap.Writer, gap uint64, rank uint8) {
		w.U64(gap)
		w.I64(7) // tag high-bits difference
		w.U8(rank << 1)
	}
	cases := map[string]func(w *snap.Writer){
		"rank past the associativity": func(w *snap.Writer) { header(w, 1); line(w, 3, 8) },
		"ranks not from zero":         func(w *snap.Writer) { header(w, 1); line(w, 3, 1) },
		"duplicate ranks in a set":    func(w *snap.Writer) { header(w, 2); line(w, 3, 0); line(w, 1, 0) },
		"repeated index":              func(w *snap.Writer) { header(w, 2); line(w, 3, 0); line(w, 0, 1) },
		"index past the last line":    func(w *snap.Writer) { header(w, 2); line(w, 1000, 0); line(w, 100, 0) },
		"count past the line count":   func(w *snap.Writer) { header(w, 5000) },
		"truncated line":              func(w *snap.Writer) { header(w, 1); w.U64(3) },
		"tag overflow": func(w *snap.Writer) {
			header(w, 1)
			w.U64(3)
			w.I64(-1)
			w.U8(0)
		},
	}
	for name, build := range cases {
		w := snap.NewWriter()
		build(w)
		c := MustNew(1<<16, 8, 64)
		if err := c.Restore(snap.NewReader(w.Bytes())); err == nil {
			t.Errorf("%s: restored without error", name)
		}
	}
}

// TestApplyDeltaRejectsBuriedRanks: a delta's lines are the most
// recently used of their sets, so ranks that would slot them below a
// set's untouched valid lines are corrupt.
func TestApplyDeltaRejectsBuriedRanks(t *testing.T) {
	src := MustNew(1<<16, 8, 64)
	for i := uint64(0); i < 3; i++ {
		src.Access(i<<13, false) // three lines of set 0
	}
	c := MustNew(1<<16, 8, 64)
	if err := c.Restore(snap.NewReader(snapshotOf(src))); err != nil {
		t.Fatal(err)
	}
	w := snap.NewWriter()
	for i := 0; i < 4; i++ {
		w.U64(0)
	}
	w.Len(1)
	w.U64(5) // way 5 of set 0, not among the restored lines
	w.I64(9) // tag high bits
	w.U8(0)  // rank 0: below the three untouched lines
	if err := c.ApplyDelta(snap.NewReader(w.Bytes())); err == nil {
		t.Fatal("delta line ranked below untouched lines applied")
	}
}

// TestRestoreSkipsClearOnlyWhenFresh pins Restore's clear elision: a
// cache fresh from New is restored without clearing, but a cache that
// already holds decoded lines is cleared even when the snapshot laid
// over it is of an empty cache (stamp zero, no lines).
func TestRestoreSkipsClearOnlyWhenFresh(t *testing.T) {
	src := MustNew(1<<16, 8, 64)
	fill(src, rand.New(rand.NewSource(2)), 300, 1<<20)
	full := snapshotOf(src)
	empty := snapshotOf(MustNew(1<<16, 8, 64))

	dst := MustNew(1<<16, 8, 64)
	for _, data := range [][]byte{full, empty} {
		if err := dst.Restore(snap.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if dst.Occupied() != 0 || countValid(dst) != 0 {
		t.Fatalf("empty snapshot restored over decoded lines left %d valid (count %d)", countValid(dst), dst.Occupied())
	}
	for i, l := range dst.lines {
		if l != (line{}) || dst.dirty[i] {
			t.Fatalf("line %d kept stale state after restoring an empty snapshot", i)
		}
	}
	if !bytes.Equal(snapshotOf(dst), empty) {
		t.Fatal("restored empty cache re-encodes differently")
	}
}

// TestSnapshotBytesPinned pins the codec's output bytes: the digests of
// a full snapshot and of a delta after a fixed seeded access sequence.
// The line layout behind the codec may change; the bytes may not,
// since checkpoints and trajectory keys in stores depend on them.
func TestSnapshotBytesPinned(t *testing.T) {
	c := MustNew(1<<18, 8, 64) // 512 sets
	rng := rand.New(rand.NewSource(18))
	fill(c, rng, 3000, 1<<22)
	full := snapshotOf(c)
	c.ResetTouched()
	fill(c, rng, 1500, 1<<22)
	w := snap.NewWriter()
	c.SnapshotDelta(w)
	for _, tc := range []struct {
		name string
		data []byte
		size int
		want string
	}{
		{"full", full, 9166, "b90ac5cbefb7563e1cada7d9e8ace5972ac1fa7d99f39c3c1c18406cb3f17744"},
		{"delta", w.Bytes(), 4840, "1d347ecf2b36edaf88e64364b46faf456f58b3e9656607116555a83666407002"},
	} {
		sum := sha256.Sum256(tc.data)
		if got := hex.EncodeToString(sum[:]); len(tc.data) != tc.size || got != tc.want {
			t.Errorf("%s snapshot: %d bytes, sha256 %s; want %d bytes, %s", tc.name, len(tc.data), got, tc.size, tc.want)
		}
	}
}
