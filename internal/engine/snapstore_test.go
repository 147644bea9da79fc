package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testPayload(n int, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, n)
}

func TestSnapStoreRoundTrip(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		name := "memory"
		if dir != "" {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			s := NewSnapStore(dir, 1<<20)
			if _, ok := s.Load("traj-a", 100); ok {
				t.Fatal("empty store served a checkpoint")
			}
			for _, tick := range []int{100, 300, 200} {
				if err := s.Save("traj-a", tick, testPayload(64, byte(tick))); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Save("traj-b", 150, testPayload(64, 9)); err != nil {
				t.Fatal(err)
			}
			got := s.Ticks("traj-a")
			if len(got) != 3 || got[0] != 100 || got[1] != 200 || got[2] != 300 {
				t.Fatalf("Ticks = %v, want [100 200 300]", got)
			}
			if ticks := s.Ticks("traj-b"); len(ticks) != 1 || ticks[0] != 150 {
				t.Fatalf("traj-b ticks = %v", ticks)
			}
			data, ok := s.Load("traj-a", 200)
			if !ok || !bytes.Equal(data, testPayload(64, 200&0xff)) {
				t.Fatalf("Load(200) = %v, %v", data, ok)
			}
			if !s.Has("traj-a", 300) || s.Has("traj-a", 250) {
				t.Fatal("Has answers wrong")
			}
			// Overwriting a slot replaces, not duplicates.
			if err := s.Save("traj-a", 200, testPayload(32, 7)); err != nil {
				t.Fatal(err)
			}
			data, _ = s.Load("traj-a", 200)
			if len(data) != 32 {
				t.Fatalf("overwritten payload length %d", len(data))
			}
			st := s.Stats()
			if st.Entries != 4 || st.Bytes != 3*64+32 {
				t.Fatalf("stats %+v", st)
			}
			// Hits and misses are per-resume-attempt tallies recorded by
			// the consumer, not per-Load; Loads counts served reads only.
			if st.Hits != 0 || st.Misses != 0 || st.Saves != 5 || st.Loads != 2 {
				t.Fatalf("tallies %+v", st)
			}
			s.NoteResume(200, 0)
			s.NoteResume(0, 0)
			if st = s.Stats(); st.Hits != 1 || st.Misses != 1 || st.GhostHits != 0 {
				t.Fatalf("attempt tallies %+v", st)
			}
		})
	}
}

func TestSnapStoreEviction(t *testing.T) {
	s := NewSnapStore("", 300)
	// Three 100-byte checkpoints fill the store exactly.
	for i := 1; i <= 3; i++ {
		if err := s.Save("k", i*100, testPayload(100, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the oldest so eviction order is by last use, not insertion.
	if _, ok := s.Load("k", 100); !ok {
		t.Fatal("lost a checkpoint before the cap")
	}
	if err := s.Save("k", 400, testPayload(100, 4)); err != nil {
		t.Fatal(err)
	}
	if s.Has("k", 200) {
		t.Fatal("least-recently-used checkpoint survived the cap")
	}
	if !s.Has("k", 100) || !s.Has("k", 300) || !s.Has("k", 400) {
		t.Fatalf("wrong eviction victim: ticks %v", s.Ticks("k"))
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Bytes != 300 || st.Entries != 3 {
		t.Fatalf("stats %+v", st)
	}
	// A payload over the whole cap is rejected outright — and the
	// failure is visible in the tallies, not just the returned error.
	if err := s.Save("k", 500, testPayload(301, 5)); err == nil {
		t.Fatal("over-cap payload accepted")
	}
	if st := s.Stats(); st.SaveErrors != 1 || st.FirstSaveError == "" {
		t.Fatalf("save failure not tallied: %+v", st)
	}
}

// TestSnapStoreAccountsRetainedCapacity: an in-memory store keeps each
// checkpoint's whole buffer, so its accounted bytes (and the byte cap)
// cover the buffers' capacity, not just the payload lengths.
func TestSnapStoreAccountsRetainedCapacity(t *testing.T) {
	s := NewSnapStore("", 300)
	var retained int64
	for i := 1; i <= 2; i++ {
		data := make([]byte, 40, 120) // a pre-sized writer's buffer
		if err := s.Save("k", i*100, data); err != nil {
			t.Fatal(err)
		}
		retained += int64(cap(data))
	}
	if st := s.Stats(); st.Bytes < retained {
		t.Fatalf("store accounts %d bytes for %d retained", st.Bytes, retained)
	}
	// A third 120-byte buffer exceeds the 300-byte cap by capacity
	// (though not by payload), so the oldest checkpoint goes.
	if err := s.Save("k", 300, make([]byte, 40, 120)); err != nil {
		t.Fatal(err)
	}
	if s.Has("k", 100) {
		t.Fatal("cap enforced on payload lengths, not retained capacity")
	}
	if st := s.Stats(); st.Bytes != 240 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 240 retained bytes after one eviction", st)
	}
}

func TestSnapStoreGhostAttribution(t *testing.T) {
	s := NewSnapStore("", 300)
	for i := 1; i <= 3; i++ {
		if err := s.Save("k", i*1000, testPayload(100, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Two more saves evict ticks 1000 and 2000 (least-recently-used).
	for i := 4; i <= 5; i++ {
		if err := s.Save("k", i*1000, testPayload(100, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Has("k", 1000) || s.Has("k", 2000) {
		t.Fatalf("expected evictions did not happen: ticks %v", s.Ticks("k"))
	}

	// attempt runs one resume attempt toward horizon that restores
	// the checkpoint at resumed (0 = a cold start).
	attempt := func(key string, resumed, horizon int) {
		_, ghost := s.Candidates(key, horizon)
		s.NoteResume(resumed, ghost)
	}

	// A cold resume to 2500 could have used evicted checkpoint 2000: one
	// ghost hit charging 2000 ticks — the furthest covering ghost wins,
	// not the sum over all of them.
	attempt("k", 0, 2500)
	if st := s.Stats(); st.GhostHits != 1 || st.EvictionResimTicks != 2000 {
		t.Fatalf("cold attribution %+v", st)
	}

	// A partial resume charges only the gap up to the ghost.
	attempt("k", 1000, 2500)
	if st := s.Stats(); st.GhostHits != 2 || st.EvictionResimTicks != 3000 {
		t.Fatalf("partial attribution %+v", st)
	}

	// No covering ghost: horizon below every ghost, a foreign key, or a
	// resume already past them all charge nothing.
	attempt("k", 0, 500)
	attempt("other", 0, 1<<30)
	attempt("k", 2000, 1<<30)
	if st := s.Stats(); st.GhostHits != 2 || st.EvictionResimTicks != 3000 {
		t.Fatalf("phantom attribution %+v", st)
	}

	// Re-saving the exact slot clears its ghost (the eviction no longer
	// costs anyone anything). This save itself evicts tick 3000.
	if err := s.Save("k", 2000, testPayload(100, 2)); err != nil {
		t.Fatal(err)
	}
	attempt("k", 1000, 2500)
	if st := s.Stats(); st.GhostHits != 2 {
		t.Fatalf("cleared ghost still charged %+v", st)
	}
}

// TestSnapGhostChargeSurvivesResave pins the check-then-act order of a
// resume attempt's eviction charge: the ghost is read with the
// candidate list, so a same-slot re-save landing between the attempt's
// load and its NoteResume — which forgets the ghost — cannot erase the
// charge for work the eviction already put back on the attempt.
func TestSnapGhostChargeSurvivesResave(t *testing.T) {
	s := NewSnapStore("", 300)
	for i := 1; i <= 3; i++ {
		if err := s.Save("k", i*1000, testPayload(100, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Load("k", 1000); !ok { // 2000 is now least recently used
		t.Fatal("checkpoint 1000 missing")
	}
	if err := s.Save("k", 4000, testPayload(100, 4)); err != nil {
		t.Fatal(err)
	}
	if s.Has("k", 2000) {
		t.Fatalf("expected eviction of tick 2000 did not happen: ticks %v", s.Ticks("k"))
	}

	ticks, ghost := s.Candidates("k", 2500)
	if len(ticks) != 1 || ticks[0] != 1000 || ghost != 2000 {
		t.Fatalf("candidates %v ghost %d, want [1000] and 2000", ticks, ghost)
	}
	if _, ok := s.Load("k", 1000); !ok {
		t.Fatal("checkpoint 1000 missing")
	}
	// Another run of the trajectory re-saves the evicted slot between
	// this attempt's load and its attribution.
	if err := s.Save("k", 2000, testPayload(100, 2)); err != nil {
		t.Fatal(err)
	}
	s.NoteResume(1000, ghost)
	if st := s.Stats(); st.Hits != 1 || st.GhostHits != 1 || st.EvictionResimTicks != 1000 {
		t.Fatalf("attempt tallies %+v, want one hit charged 1000 ticks to ghost 2000", st)
	}
	// The next attempt finds the re-saved checkpoint and owes nothing.
	ticks, ghost = s.Candidates("k", 2500)
	if len(ticks) == 0 || ticks[len(ticks)-1] != 2000 || ghost != 0 {
		t.Fatalf("after re-save: candidates %v ghost %d, want ...2000 and no ghost", ticks, ghost)
	}
}

func TestSnapStoreDiskLRUSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := NewSnapStore(dir, 300)
	hash := hashKey("k")
	for i := 1; i <= 3; i++ {
		if err := s.Save("k", i*1000, testPayload(100, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Backdate the files so save order is unambiguous to the reindexer.
	base := time.Now().Add(-3 * time.Hour)
	for i := 1; i <= 3; i++ {
		when := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.snapPath(hash, i*1000, 0), when, when); err != nil {
			t.Fatal(err)
		}
	}
	// Reading tick 1000 must bump its on-disk recency too, not just the
	// in-process touch order.
	if _, ok := s.Load("k", 1000); !ok {
		t.Fatal("lost a checkpoint before the cap")
	}

	// A fresh store over the same directory evicts by last use: the
	// just-read 1000 survives, the stale 2000 goes. Without the mtime
	// bump this degrades to save-order eviction and drops 1000 — the
	// hottest checkpoint.
	s2 := NewSnapStore(dir, 300)
	if err := s2.Save("k", 4000, testPayload(100, 4)); err != nil {
		t.Fatal(err)
	}
	if s2.Has("k", 2000) {
		t.Fatal("restart forgot recency: evicted by save order, not last use")
	}
	if !s2.Has("k", 1000) || !s2.Has("k", 3000) || !s2.Has("k", 4000) {
		t.Fatalf("wrong eviction victim after restart: ticks %v", s2.Ticks("k"))
	}
}

func TestSnapStoreReload(t *testing.T) {
	dir := t.TempDir()
	s := NewSnapStore(dir, 1<<20)
	for i := 1; i <= 4; i++ {
		if err := s.Save("traj", i*1000, testPayload(50+i, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh store over the same directory indexes the checkpoints.
	s2 := NewSnapStore(dir, 1<<20)
	if ticks := s2.Ticks("traj"); len(ticks) != 4 || ticks[3] != 4000 {
		t.Fatalf("reloaded ticks = %v", ticks)
	}
	data, ok := s2.Load("traj", 3000)
	if !ok || len(data) != 53 {
		t.Fatalf("reloaded Load = %d bytes, %v", len(data), ok)
	}
	if st := s2.Stats(); st.Bytes != 51+52+53+54 {
		t.Fatalf("reloaded size accounting %+v", st)
	}
}

func TestSnapStoreVanishedFile(t *testing.T) {
	dir := t.TempDir()
	s := NewSnapStore(dir, 1<<20)
	if err := s.Save("traj", 100, testPayload(10, 1)); err != nil {
		t.Fatal(err)
	}
	hash := hashKey("traj")
	if err := os.Remove(filepath.Join(dir, hash[:2], fmt.Sprintf("%s@%d.snap", hash, 100))); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load("traj", 100); ok {
		t.Fatal("vanished checkpoint served")
	}
	if s.Has("traj", 100) {
		t.Fatal("vanished checkpoint still indexed")
	}
}

func TestSnapStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	// Result-store cells and junk must not be indexed as checkpoints,
	// nor a well-formed checkpoint name outside the shard directories.
	sub := filepath.Join(dir, "ab")
	os.MkdirAll(sub, 0o755)
	hash := hashKey("x")
	os.WriteFile(filepath.Join(sub, hash+".json"), []byte("{}"), 0o644)
	os.WriteFile(filepath.Join(sub, "junk.snap"), []byte("?"), 0o644)
	os.WriteFile(filepath.Join(sub, hash+"@-5.snap"), []byte("?"), 0o644)
	os.WriteFile(filepath.Join(dir, hash+"@100.snap"), []byte("?"), 0o644)
	s := NewSnapStore(dir, 1<<20)
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("indexed foreign files: %+v", st)
	}
}
