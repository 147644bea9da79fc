package engine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hira/internal/fault"
)

// SnapStats tallies a SnapStore's lifetime activity: how often resuming
// runs found a usable checkpoint, how much work the byte cap evicted,
// and the store's current footprint.
type SnapStats struct {
	Hits      uint64 `json:"hits"`      // resume attempts that restored a usable checkpoint
	Misses    uint64 `json:"misses"`    // resume attempts that found nothing usable
	Loads     uint64 `json:"loads"`     // checkpoint payload reads served
	Saves     uint64 `json:"saves"`     // checkpoints written
	Evictions uint64 `json:"evictions"` // checkpoints dropped by the byte cap
	// Bytes is what the stored checkpoints occupy: their file payloads
	// on disk, or in memory the capacity of the buffers the store
	// retains (a writer's pre-sized buffer may exceed its payload).
	Bytes   int64 `json:"bytes"`
	Entries int   `json:"entries"` // current checkpoint count

	// GhostHits and EvictionResimTicks are the cache-economics pair: a
	// ghost hit is a resume attempt that would have restored a further
	// checkpoint had the byte cap not evicted it, and EvictionResimTicks
	// accumulates the simulation ticks those evictions force back onto
	// the CPU. Together they price the cap — a store with evictions but
	// zero ghost hits evicted only dead weight; one with a climbing
	// resim-tick tally is thrashing its working set.
	GhostHits          uint64 `json:"ghost_hits"`
	EvictionResimTicks uint64 `json:"eviction_resim_ticks"`

	// SaveErrors counts checkpoints that could not be written (disk
	// full, permissions, over-cap payloads) — saves are best-effort, so
	// without this tally a store silently degrading to cold simulation
	// would be invisible. FirstSaveError describes the first failure.
	SaveErrors     uint64 `json:"save_errors"`
	FirstSaveError string `json:"first_save_error,omitempty"`

	// DeltaSaves counts the checkpoints written as deltas against an
	// earlier checkpoint of the same trajectory; they are included in
	// Saves, so Saves - DeltaSaves were full snapshots. DeltaBytes is
	// the payload bytes those deltas wrote, summed over the store's
	// lifetime (evictions do not subtract from it, unlike Bytes). A
	// store whose DeltaBytes/DeltaSaves approaches the full-snapshot
	// size has trajectories touching their whole working set every
	// interval.
	DeltaSaves uint64 `json:"delta_saves"`
	DeltaBytes uint64 `json:"delta_bytes"`
}

// DefaultSnapMaxBytes is the checkpoint store's default byte cap for
// on-disk stores. A cap that doesn't hold one figure sweep's working set
// makes a sequential rerun evict every checkpoint moments before it
// would have been resumed; this one holds many sweeps (full checkpoints
// carry only the LLC lines a run has filled, tens to hundreds of KB).
const DefaultSnapMaxBytes = 2 << 30

// DefaultSnapMaxBytesMemory is the default cap for in-memory stores,
// where the budget is process RAM rather than disk.
const DefaultSnapMaxBytesMemory = 256 << 20

// snapEntry is one stored checkpoint.
type snapEntry struct {
	hash  string
	tick  int
	base  int    // delta base tick; 0 = full snapshot
	size  int64  // accounted bytes (see SnapStats.Bytes)
	touch uint64 // last-use order for oldest-first eviction
	data  []byte // payload, in-memory mode only
}

// snapSlot names one checkpoint slot: a trajectory key hash and tick.
type snapSlot struct {
	hash string
	tick int
}

// SnapStore holds simulation checkpoints keyed by (trajectory key, tick):
// opaque binary snapshots a cell runner writes while simulating and reads
// to resume a longer run from a shorter one's state. With a directory it
// shares the result store's layout — 256 two-hex shard directories,
// temp-file + rename atomic writes, a startup-built index — storing each
// checkpoint as <sha256(key)>@<tick>.snap next to the JSON cells; without
// one it degrades to a process-local in-memory store, which still lets a
// long-lived engine (e.g. the experiment service) answer "same cell,
// longer horizon" by simulating only the delta.
//
// The store is bounded: once stored payloads exceed maxBytes, the
// least-recently-used checkpoints are evicted (oldest-first when nothing
// has been re-read) until the new save fits. Corrupt or unreadable files
// are misses — the consumer validates payloads and re-simulates.
type SnapStore struct {
	root     string // "" = in-memory
	maxBytes int64
	fs       fault.FS
	degraded string // non-empty: requested on-disk root was unusable; why

	mu      sync.Mutex
	entries map[string]map[int]*snapEntry // key hash -> tick -> entry
	// writing counts, per slot, saves whose file write is in flight: a
	// failed Load must not drop a slot whose file a concurrent save may
	// already have replaced (on-disk mode only).
	writing map[snapSlot]int
	total   int64
	clock   uint64
	stats   SnapStats

	// Ghost list: a bounded ring remembering recently evicted (hash,
	// tick) slots so a resume attempt can tell "cold because never saved"
	// from "cold because evicted". Re-saving the exact slot clears its
	// ghost; overwriting the ring forgets the oldest evictions first.
	ghosts    []ghost
	ghostNext int
	ghostIdx  map[string]map[int]int // hash -> tick -> ring slot
}

// ghost is one remembered eviction.
type ghost struct {
	hash string
	tick int
}

// ghostRingSize bounds the eviction memory: enough to cover every
// checkpoint of a full sweep's trajectories without letting a
// long-lived store grow an unbounded tombstone list.
const ghostRingSize = 4096

// NewSnapStore opens (creating if needed) a checkpoint store rooted at
// dir, or an in-memory store when dir is empty. maxBytes <= 0 applies
// DefaultSnapMaxBytes (disk) or DefaultSnapMaxBytesMemory (in-memory).
func NewSnapStore(dir string, maxBytes int64) *SnapStore {
	return NewSnapStoreFS(dir, maxBytes, nil)
}

// NewSnapStoreFS is NewSnapStore with an explicit fault.FS for chaos
// testing (nil means the real filesystem). An unusable or unwritable
// on-disk root does not fail construction: the store flips to in-memory
// mode — checkpoints still serve warm resumes for the process's
// lifetime, they just don't survive a restart — and records why in
// Degraded().
func NewSnapStoreFS(dir string, maxBytes int64, fsys fault.FS) *SnapStore {
	if fsys == nil {
		fsys = fault.OS
	}
	s := &SnapStore{root: dir, fs: fsys, entries: make(map[string]map[int]*snapEntry)}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			s.degraded = fmt.Sprintf("snapshot root unusable: %v", err)
			s.root = ""
		} else if err := probeWritable(dir); err != nil {
			s.degraded = fmt.Sprintf("snapshot root unwritable: %v", err)
			s.root = ""
		}
	}
	if maxBytes <= 0 {
		if s.root == "" {
			maxBytes = DefaultSnapMaxBytesMemory
		} else {
			maxBytes = DefaultSnapMaxBytes
		}
	}
	s.maxBytes = maxBytes
	if s.root == "" {
		return s
	}
	sweepStaleTmp(dir, tmpSweepAge)
	// Index existing checkpoints, oldest first by modification time so
	// the eviction order survives restarts.
	type found struct {
		e   *snapEntry
		mod int64
	}
	var all []found
	walkShards(dir, func(shard string, f os.DirEntry) {
		hash, tick, base, ok := snapFileName(f.Name())
		if !ok || shard == "" {
			return
		}
		info, err := f.Info()
		if err != nil {
			return
		}
		// Stats.Bytes counts payload bytes: every file carries the
		// checksum envelope, so the payload is the rest. A file too
		// short to hold one is corrupt and misses on its first Load.
		size := max(info.Size()-int64(snapSumHeader), 0)
		all = append(all, found{
			e:   &snapEntry{hash: hash, tick: tick, base: base, size: size},
			mod: info.ModTime().UnixNano(),
		})
	})
	sort.Slice(all, func(i, j int) bool { return all[i].mod < all[j].mod })
	for _, f := range all {
		s.clock++
		f.e.touch = s.clock
		s.insertLocked(f.e)
	}
	return s
}

// snapSumMagic prefixes every on-disk checkpoint, followed by the
// SHA-256 of the payload. The consumer's structural validation (the
// snapshot's own magic and embedded key) catches truncation and wrong-
// slot payloads but not a bit flip deep inside the state bytes, which
// would otherwise restore silently wrong simulator state; the envelope
// makes any corruption a detectable miss. A file without it (written
// before the envelope existed, or with a damaged prefix) is a miss too.
var snapSumMagic = []byte("HIRASUM1")

// snapSumHeader is the envelope's size: magic plus SHA-256.
const snapSumHeader = len("HIRASUM1") + sha256.Size

// wrapSnapSum frames a checkpoint payload for disk: magic, SHA-256,
// payload.
func wrapSnapSum(data []byte) []byte {
	out := make([]byte, 0, snapSumHeader+len(data))
	out = append(out, snapSumMagic...)
	sum := sha256.Sum256(data)
	out = append(out, sum[:]...)
	return append(out, data...)
}

// unwrapSnapSum verifies and strips the checksum envelope, rejecting
// data without it.
func unwrapSnapSum(raw []byte) ([]byte, bool) {
	if len(raw) < snapSumHeader || !bytes.HasPrefix(raw, snapSumMagic) {
		return nil, false
	}
	sum := sha256.Sum256(raw[snapSumHeader:])
	if !bytes.Equal(sum[:], raw[len(snapSumMagic):snapSumHeader]) {
		return nil, false
	}
	return raw[snapSumHeader:], true
}

// snapFileName parses a checkpoint file name: <64-hex>@<tick>.snap for
// a full snapshot, or <64-hex>@<tick>.d<base>.snap for a delta against
// the same trajectory's checkpoint at <base>. Encoding the base in the
// name keeps the restart index chain-aware without opening any file.
func snapFileName(name string) (hash string, tick, base int, ok bool) {
	rest, ok := strings.CutSuffix(name, ".snap")
	if !ok || len(rest) < 66 || rest[64] != '@' {
		return "", 0, 0, false
	}
	hash = rest[:64]
	if _, ok := cellFileHash(hash + ".json"); !ok {
		return "", 0, 0, false
	}
	ticks := rest[65:]
	if i := strings.IndexByte(ticks, '.'); i >= 0 {
		if len(ticks) < i+2 || ticks[i+1] != 'd' {
			return "", 0, 0, false
		}
		base, _ = strconv.Atoi(ticks[i+2:])
		if base <= 0 {
			return "", 0, 0, false
		}
		ticks = ticks[:i]
	}
	tick, err := strconv.Atoi(ticks)
	if err != nil || tick <= 0 || (base != 0 && base >= tick) {
		return "", 0, 0, false
	}
	return hash, tick, base, true
}

// insertLocked adds e to the index, replacing any same-slot entry.
func (s *SnapStore) insertLocked(e *snapEntry) {
	byTick := s.entries[e.hash]
	if byTick == nil {
		byTick = make(map[int]*snapEntry)
		s.entries[e.hash] = byTick
	}
	if old := byTick[e.tick]; old != nil {
		s.total -= old.size
		s.stats.Entries--
	}
	byTick[e.tick] = e
	s.total += e.size
	s.stats.Entries++
}

// Ticks returns the ticks with a stored checkpoint for key, ascending.
func (s *SnapStore) Ticks(key string) []int {
	ticks, _ := s.Candidates(key, math.MaxInt)
	return ticks
}

// Candidates opens a resume attempt for key toward horizon: it returns
// the ticks at or below horizon with a stored checkpoint, ascending,
// and the furthest evicted checkpoint (ghost) at or below horizon, 0
// for none. Both are read under one lock, so the ghost is the one the
// attempt's candidate list was missing: a concurrent re-save of the
// ghost's slot, which forgets the ghost, cannot erase the attempt's
// charge before NoteResume records it.
func (s *SnapStore) Candidates(key string, horizon int) (ticks []int, ghost int) {
	hash := hashKey(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	for t := range s.ghostIdx[hash] {
		if t <= horizon && t > ghost {
			ghost = t
		}
	}
	byTick := s.entries[hash]
	if len(byTick) == 0 {
		return nil, ghost
	}
	ticks = make([]int, 0, len(byTick))
	for t := range byTick {
		if t <= horizon {
			ticks = append(ticks, t)
		}
	}
	sort.Ints(ticks)
	return ticks, ghost
}

// Has reports whether a checkpoint exists for (key, tick).
func (s *SnapStore) Has(key string, tick int) bool {
	hash := hashKey(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[hash][tick] != nil
}

// Load returns the checkpoint payload for (key, tick). A missing,
// unreadable, or vanished checkpoint is (nil, false); payload validation
// is the consumer's job (the self-describing snapshot embeds its own key
// and version). Load does not tally hits or misses — those are
// per-resume-attempt (NoteResume), not per-read, so one attempt
// that probes several candidates still counts once. File reads happen
// outside the index lock: checkpoints run to hundreds of KB, and a worker
// pool must not serialize on one cell's disk I/O.
func (s *SnapStore) Load(key string, tick int) ([]byte, bool) {
	hash := hashKey(key)
	s.mu.Lock()
	e := s.entries[hash][tick]
	var data []byte
	var path string
	if e != nil {
		if s.root == "" {
			s.clock++
			e.touch = s.clock
			s.stats.Loads++
			data = e.data
		} else {
			path = s.snapPath(hash, tick, e.base)
		}
	}
	s.mu.Unlock()
	if e == nil {
		return nil, false
	}
	if s.root == "" {
		return data, true
	}
	raw, err := s.fs.ReadFile(fault.SiteSnapRead, path)
	data, ok := unwrapSnapSum(raw)
	if err != nil || !ok {
		// Unreadable, or a checksum mismatch: the file is damaged. Drop
		// the slot so the next resume attempt doesn't re-read the same
		// corpse — but only if it is still the entry this read found and
		// no same-slot save is writing: a concurrent save may already
		// have replaced the file, and dropping would delete the fresh one.
		s.mu.Lock()
		if s.writing[snapSlot{hash, tick}] == 0 {
			s.dropLocked(e, false)
		}
		s.mu.Unlock()
		return nil, false
	}
	// Refresh the file's mtime so recency survives restarts: the startup
	// index orders entries by modification time, and without this bump a
	// reopened store would evict by save order — dropping the hottest
	// checkpoints first. Best-effort; a failed touch only costs restart
	// ordering, never the payload.
	now := time.Now()
	s.fs.Chtimes(fault.SiteSnapRead, path, now)
	s.mu.Lock()
	s.clock++
	e.touch = s.clock
	s.stats.Loads++
	s.mu.Unlock()
	return data, true
}

// NoteResume records the outcome of a resume attempt opened by
// Candidates, in one locked update: a hit when it restored the
// checkpoint at tick resumed, a miss when resumed is 0 (nothing usable,
// including payloads that failed validation downstream). It also
// charges re-simulated work to prior evictions: when the attempt's
// ghost lies beyond resumed, the byte cap cost one GhostHit and
// ghost-resumed EvictionResimTicks — exactly the ticks it put back on
// the CPU. An attempt with no ghost past its resume point charges
// nothing: that work was simply never checkpointed.
func (s *SnapStore) NoteResume(resumed, ghost int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if resumed > 0 {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	if ghost > resumed {
		s.stats.GhostHits++
		s.stats.EvictionResimTicks += uint64(ghost - resumed)
	}
}

// Save stores a checkpoint for (key, tick), evicting least-recently-used
// checkpoints if needed to respect the byte cap. A payload larger than
// the whole cap is rejected. Saving an already-present slot overwrites
// it. The store takes ownership of data — callers must not reuse the
// slice (checkpoints run to hundreds of KB, and the save path is hot enough
// that a defensive copy is measurable). Failures are tallied in
// SaveErrors/FirstSaveError besides being returned, because callers
// treat saves as best-effort and would otherwise degrade silently.
func (s *SnapStore) Save(key string, tick int, data []byte) error {
	err := s.save(key, tick, 0, data)
	if err != nil {
		s.noteSaveErr(err)
	}
	return err
}

// SaveDelta stores a differential checkpoint for (key, tick) encoded
// against the same trajectory's checkpoint at baseTick. It shares
// Save's semantics (LRU eviction, overwrite, ownership of data); the
// base linkage additionally means evicting the base cascades to every
// delta chained on it, so the index never advertises a checkpoint it
// cannot restore.
func (s *SnapStore) SaveDelta(key string, tick, baseTick int, data []byte) error {
	if baseTick <= 0 || baseTick >= tick {
		err := fmt.Errorf("engine: delta base tick %d invalid for checkpoint tick %d", baseTick, tick)
		s.noteSaveErr(err)
		return err
	}
	err := s.save(key, tick, baseTick, data)
	if err != nil {
		s.noteSaveErr(err)
	}
	return err
}

func (s *SnapStore) noteSaveErr(err error) {
	s.mu.Lock()
	s.stats.SaveErrors++
	if s.stats.FirstSaveError == "" {
		s.stats.FirstSaveError = err.Error()
	}
	s.mu.Unlock()
}

func (s *SnapStore) save(key string, tick, base int, data []byte) error {
	if tick <= 0 {
		return fmt.Errorf("engine: checkpoint tick %d must be positive", tick)
	}
	// In memory the store retains data's whole buffer, so it accounts
	// the capacity: the byte cap then bounds the memory checkpoints
	// actually pin. On disk it keeps only the file.
	size := int64(cap(data))
	if s.root != "" {
		size = int64(len(data))
	}
	if size > s.maxBytes {
		return fmt.Errorf("engine: %d-byte checkpoint exceeds the %d-byte store cap", size, s.maxBytes)
	}
	hash := hashKey(key)
	slot := snapSlot{hash, tick}
	if s.root != "" {
		// Write the payload before touching the index, outside the lock
		// (checkpoint I/O must not serialize the worker pool).
		// Concurrent same-slot writers race benignly: trajectories are
		// deterministic, so both payloads are identical, and the atomic
		// rename means the last one wins. The in-flight count keeps a
		// failed Load from dropping the slot meanwhile (see Load).
		s.mu.Lock()
		if s.writing == nil {
			s.writing = make(map[snapSlot]int)
		}
		s.writing[slot]++
		s.mu.Unlock()
		err := s.fs.WriteFileAtomic(fault.SiteSnapWrite, s.snapPath(hash, tick, base), wrapSnapSum(data))
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.writing[slot]--; s.writing[slot] == 0 {
			delete(s.writing, slot)
		}
		if err != nil {
			return fmt.Errorf("engine: snapshot store: %w", err)
		}
	} else {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	// Retire any same-slot entry's accounting first — its file (if any)
	// was just atomically replaced, so it must not become an eviction
	// victim below and delete the fresh payload. A same-slot entry of
	// the other kind lives under a different file name, so its stale
	// file is removed explicitly.
	if old := s.entries[hash][tick]; old != nil {
		delete(s.entries[hash], tick)
		if len(s.entries[hash]) == 0 {
			delete(s.entries, hash)
		}
		s.total -= old.size
		s.stats.Entries--
		if s.root != "" && old.base != base {
			s.fs.Remove(fault.SiteSnapEvict, s.snapPath(old.hash, old.tick, old.base))
		}
	}
	// A delta must not orphan itself: its base chain is pinned against
	// the eviction loop below (evicting the base would leave the fresh
	// delta unrestorable via the cascade).
	var protected map[int]bool
	if base > 0 {
		protected = make(map[int]bool)
		for t := base; t > 0; {
			protected[t] = true
			anc := s.entries[hash][t]
			if anc == nil {
				break
			}
			t = anc.base
		}
	}
	for s.total+size > s.maxBytes {
		victim := s.oldestLocked(hash, protected)
		if victim == nil {
			if protected == nil {
				break
			}
			// Only the pending delta's own base chain remains evictable;
			// dropping it would orphan the new delta, so reject the save.
			if s.root != "" {
				s.fs.Remove(fault.SiteSnapEvict, s.snapPath(hash, tick, base))
			}
			return fmt.Errorf("engine: %d-byte delta checkpoint cannot fit without evicting its base chain", size)
		}
		s.dropLocked(victim, true)
	}
	e := &snapEntry{hash: hash, tick: tick, base: base, size: size}
	if s.root == "" {
		e.data = data
	}
	s.clock++
	e.touch = s.clock
	s.insertLocked(e)
	s.forgetGhostLocked(hash, tick) // the slot lives again; stop charging its eviction
	s.stats.Saves++
	if base > 0 {
		s.stats.DeltaSaves++
		s.stats.DeltaBytes += uint64(len(data))
	}
	return nil
}

// oldestLocked returns the least-recently-used entry, or nil when no
// entry is evictable. Entries of trajectory `hash` whose tick is in
// `protected` are skipped (a pending delta's base chain).
func (s *SnapStore) oldestLocked(hash string, protected map[int]bool) *snapEntry {
	var victim *snapEntry
	for h, byTick := range s.entries {
		for _, e := range byTick {
			if protected != nil && h == hash && protected[e.tick] {
				continue
			}
			if victim == nil || e.touch < victim.touch {
				victim = e
			}
		}
	}
	return victim
}

// dropLocked removes an entry from the index (and its file on disk),
// optionally counting it as an eviction. Dropping a checkpoint also
// drops, transitively, every delta chained on it — their payloads are
// meaningless without the base, and an index advertising them would
// turn the loss into a restore-time error instead of a clean miss.
// Cascaded drops inherit the eviction accounting (and ghosts), since
// the byte cap is what made them unrestorable.
func (s *SnapStore) dropLocked(e *snapEntry, evict bool) {
	byTick := s.entries[e.hash]
	if byTick[e.tick] != e {
		return
	}
	delete(byTick, e.tick)
	if len(byTick) == 0 {
		delete(s.entries, e.hash)
	}
	s.total -= e.size
	s.stats.Entries--
	if evict {
		s.stats.Evictions++
		s.rememberGhostLocked(e.hash, e.tick)
	}
	if s.root != "" {
		// Best-effort: a file that can't be removed (injected EIO) leaves a
		// few stray bytes on disk but a consistent index; the slot is gone
		// either way, and the startup indexer will rediscover survivors.
		s.fs.Remove(fault.SiteSnapEvict, s.snapPath(e.hash, e.tick, e.base))
	}
	for _, dep := range s.entries[e.hash] {
		if dep.base == e.tick {
			s.dropLocked(dep, evict)
		}
	}
}

// rememberGhostLocked records an evicted slot in the bounded ghost ring.
func (s *SnapStore) rememberGhostLocked(hash string, tick int) {
	if s.ghostIdx == nil {
		s.ghostIdx = make(map[string]map[int]int)
		s.ghosts = make([]ghost, ghostRingSize)
	}
	if _, ok := s.ghostIdx[hash][tick]; ok {
		return
	}
	slot := s.ghostNext % ghostRingSize
	if old := s.ghosts[slot]; old.hash != "" {
		s.forgetGhostLocked(old.hash, old.tick)
	}
	s.ghosts[slot] = ghost{hash: hash, tick: tick}
	byTick := s.ghostIdx[hash]
	if byTick == nil {
		byTick = make(map[int]int)
		s.ghostIdx[hash] = byTick
	}
	byTick[tick] = slot
	s.ghostNext++
}

// forgetGhostLocked drops a remembered eviction, if present.
func (s *SnapStore) forgetGhostLocked(hash string, tick int) {
	byTick := s.ghostIdx[hash]
	slot, ok := byTick[tick]
	if !ok {
		return
	}
	delete(byTick, tick)
	if len(byTick) == 0 {
		delete(s.ghostIdx, hash)
	}
	s.ghosts[slot] = ghost{}
}

// snapPath returns where a checkpoint lives: root/ab/ab...@tick.snap
// for full snapshots, root/ab/ab...@tick.d<base>.snap for deltas.
func (s *SnapStore) snapPath(hash string, tick, base int) string {
	if base > 0 {
		return filepath.Join(s.root, hash[:2], fmt.Sprintf("%s@%d.d%d.snap", hash, tick, base))
	}
	return filepath.Join(s.root, hash[:2], fmt.Sprintf("%s@%d.snap", hash, tick))
}

// Degraded reports whether the store fell back to in-memory mode because
// its requested on-disk root was unusable, and why.
func (s *SnapStore) Degraded() (string, bool) {
	return s.degraded, s.degraded != ""
}

// Stats returns a snapshot of the store's tallies.
func (s *SnapStore) Stats() SnapStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Bytes = s.total
	return st
}
