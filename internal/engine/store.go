package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hira/internal/fault"
)

// store is the content-addressed on-disk half of an engine's result
// cache. Each cell result lives in its own JSON file named by the
// SHA-256 of the cell key, sharded into 256 two-hex-digit directories so
// a paper-scale store (hundreds of thousands of cells) never produces a
// single pathological directory. Writes go through a temp file in the
// destination shard followed by a rename, so a crash at any instant
// leaves either the old file, the new file, or an ignorable *.tmp —
// never a truncated cell. An unreadable, corrupt, or key-mismatched file
// is a miss: the cell re-simulates and overwrites it.
//
// At construction the store walks its shard directories once and builds
// an in-memory index of present hashes, so a cold lookup against a large
// store is a map probe, not a stat. The index is updated on every save;
// it only goes stale if a *different* process writes the same directory,
// in which case those cells are re-simulated rather than served — safe,
// merely redundant.
//
// Degradation contract: the store never fails a cell over storage. An
// unwritable root (detected by a probe write at construction) or a run
// of storeDegradeAfter consecutive save failures (a disk that filled up
// mid-sweep) flips the store into cache-only mode — saves become silent
// no-ops, loads keep working if the root is still readable, and the
// engine's in-memory cache carries new results for the process's
// lifetime. The flip is reported once through Degraded() (surfaced as
// the hira_store_degraded gauge and /readyz), not once per cell.
//
// All per-operation file I/O goes through a fault.FS, so chaos runs can
// inject ENOSPC, EIO, torn writes, and corrupt reads at the store.read /
// store.write sites deterministically.
type store[R any] struct {
	root string
	fs   fault.FS

	mu        sync.Mutex
	index     map[string]struct{} // present cell hashes
	degraded  string              // non-empty: cache-only mode, and why
	saveFails int                 // consecutive save failures
}

// storeDegradeAfter is how many consecutive save failures flip the
// store into cache-only mode: enough to ride out one transient hiccup,
// few enough that a full disk stops burning a write attempt (and a
// StoreErrors tally) on every remaining cell of a sweep.
const storeDegradeAfter = 4

// tmpSweepAge bounds the stale-temp-file sweep at construction: *.tmp
// files older than this are orphans of a crashed writer and are
// removed; younger ones may belong to a live process sharing the
// directory and are left alone.
const tmpSweepAge = time.Hour

// storedWire is the on-disk JSON schema of one cell result, with the
// result left as raw bytes so load verifies the checksum over exactly
// the bytes on disk and save checksums exactly the bytes it writes. The
// full key is stored alongside the result so files are self-describing
// and a (vanishingly unlikely) hash collision is detected rather than
// served. Sum is the hex SHA-256 of the raw result bytes: a corrupted
// file that still parses as JSON (bit rot flipping a digit inside a
// figure value, or damage to the sum's own field name) must read as a
// miss, never as a subtly wrong result.
type storedWire struct {
	Key    string          `json:"key"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// sumBytes returns the hex SHA-256 of b.
func sumBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// newStore opens (creating if needed) the store rooted at dir and loads
// its index from the shard directories; files outside them (such as the
// pre-sharding flat layout's root/<hash>.json) are ignored, so their
// cells re-simulate. Stale *.tmp orphans from crashed writers are swept.
// An unusable root degrades to an empty index; an unwritable one
// additionally flips the store into cache-only mode (see the type
// comment).
func newStore[R any](dir string, fsys fault.FS) *store[R] {
	if fsys == nil {
		fsys = fault.OS
	}
	s := &store[R]{root: dir, fs: fsys, index: make(map[string]struct{})}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.degraded = fmt.Sprintf("store root unusable: %v", err)
	} else if err := probeWritable(dir); err != nil {
		s.degraded = fmt.Sprintf("store root unwritable: %v", err)
	}
	sweepStaleTmp(dir, tmpSweepAge)
	walkShards(dir, func(shard string, f os.DirEntry) {
		if hash, ok := cellFileHash(f.Name()); ok && shard != "" {
			s.index[hash] = struct{}{}
		}
	})
	return s
}

// probeWritable checks that dir accepts writes by creating and removing
// a probe file — the cheap startup test behind the documented
// "unwritable root degrades to cache-only mode" contract.
func probeWritable(dir string) error {
	f, err := os.CreateTemp(dir, ".probe-*.tmp")
	if err != nil {
		return err
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

// sweepStaleTmp removes *.tmp files older than maxAge from dir and its
// shard subdirectories. Temp files are orphaned by a crash between
// create and rename (or by an injected torn write); without the sweep
// they accumulate forever. The age bound protects a live writer sharing
// the directory: its in-flight temp files are seconds old, not hours.
// Returns how many orphans were removed.
func sweepStaleTmp(dir string, maxAge time.Duration) int {
	cutoff := time.Now().Add(-maxAge)
	removed := 0
	walkShards(dir, func(shard string, f os.DirEntry) {
		if !strings.HasSuffix(f.Name(), ".tmp") {
			return
		}
		info, err := f.Info()
		if err != nil || info.ModTime().After(cutoff) {
			return
		}
		if os.Remove(filepath.Join(dir, shard, f.Name())) == nil {
			removed++
		}
	})
	return removed
}

// walkShards lists dir once and each of its two-hex shard directories
// once, calling visit for every file (not directory) found: dir's own
// files with shard "", then each shard's with the shard's name, so the
// file is at filepath.Join(dir, shard, f.Name()). Both stores share this
// layout; an unreadable directory is skipped.
func walkShards(dir string, visit func(shard string, f os.DirEntry)) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var shards []string
	for _, e := range entries {
		switch {
		case !e.IsDir():
			visit("", e)
		case isShardName(e.Name()):
			shards = append(shards, e.Name())
		}
	}
	for _, sh := range shards {
		files, err := os.ReadDir(filepath.Join(dir, sh))
		if err != nil {
			continue
		}
		for _, f := range files {
			if !f.IsDir() {
				visit(sh, f)
			}
		}
	}
}

// cellFileHash parses a <64-hex>.json cell file name.
func cellFileHash(name string) (string, bool) {
	if len(name) != 64+len(".json") || filepath.Ext(name) != ".json" {
		return "", false
	}
	hash := name[:64]
	if _, err := hex.DecodeString(hash); err != nil {
		return "", false
	}
	return hash, true
}

// isShardName reports whether name is a two-hex-digit shard directory.
func isShardName(name string) bool {
	if len(name) != 2 {
		return false
	}
	_, err := hex.DecodeString(name)
	return err == nil
}

// hashKey returns the hex SHA-256 a key files under.
func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// path returns where the cell for hash lives: root/ab/abcd....json.
func (s *store[R]) path(hash string) string {
	return filepath.Join(s.root, hash[:2], hash+".json")
}

// load fetches the stored result for key, if present and intact. Loads
// keep working in cache-only (degraded) mode: a root can be unwritable
// yet still readable, and the cells already on disk are still good.
func (s *store[R]) load(key string) (R, bool) {
	var zero R
	hash := hashKey(key)
	s.mu.Lock()
	_, present := s.index[hash]
	s.mu.Unlock()
	if !present {
		return zero, false
	}
	data, err := s.fs.ReadFile(fault.SiteStoreRead, s.path(hash))
	if err != nil {
		return zero, false
	}
	var sc storedWire
	if err := json.Unmarshal(data, &sc); err != nil || sc.Key != key {
		return zero, false
	}
	if sumBytes(sc.Result) != sc.Sum {
		return zero, false
	}
	var r R
	if err := json.Unmarshal(sc.Result, &r); err != nil {
		return zero, false
	}
	return r, true
}

// degradedReason reports whether the store is in cache-only mode.
func (s *store[R]) degradedReason() (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded, s.degraded != ""
}

// save persists a result via an atomic temp+rename write. In cache-only
// mode saves are silent no-ops (saved=false, err=nil): the degradation
// was reported once when the store flipped; failing every remaining
// cell's save would only repeat it. A failed save counts toward the
// consecutive-failure flip; a successful one resets the run.
func (s *store[R]) save(key string, r R) (saved bool, err error) {
	s.mu.Lock()
	deg := s.degraded != ""
	s.mu.Unlock()
	if deg {
		return false, nil
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return false, fmt.Errorf("engine: marshal cell %q: %w", key, err)
	}
	data, err := json.Marshal(storedWire{Key: key, Sum: sumBytes(raw), Result: raw})
	if err != nil {
		return false, fmt.Errorf("engine: marshal cell %q: %w", key, err)
	}
	hash := hashKey(key)
	if err := s.fs.WriteFileAtomic(fault.SiteStoreWrite, s.path(hash), data); err != nil {
		// Decide under the lock that flips the store: a save that was
		// already in flight when a concurrent failure degraded it lands
		// here after the flip and must be the same silent no-op as a
		// save that started degraded, or the flip is reported once per
		// in-flight save instead of once.
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.degraded != "" {
			return false, nil
		}
		s.saveFails++
		if s.saveFails >= storeDegradeAfter {
			s.degraded = fmt.Sprintf("%d consecutive save failures, last: %v", s.saveFails, err)
		}
		return false, fmt.Errorf("engine: result store: %w", err)
	}
	s.mu.Lock()
	s.saveFails = 0
	s.index[hash] = struct{}{}
	s.mu.Unlock()
	return true, nil
}

// Len reports how many cells the index currently knows about.
func (s *store[R]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}
