// Package fault is the failpoint seam the durable layers (the engine's
// result store, the checkpoint store, the service's job journal) write
// through. In production the seam is a zero-cost passthrough to the os
// package; under test (or a chaos run of a real server) an Injector
// deterministically fails named sites with the storage failures that
// actually happen in the field — full disks, I/O errors, torn writes
// where the process dies between the temp-file write and the rename,
// and bit-rotted payloads — so every degradation contract the stores
// claim can be exercised on demand and reproduced from a seed.
//
// The seam is deliberately narrow: the stores share one crash-safety
// idiom (read whole file, write whole file via temp + rename, remove,
// touch), so FS exposes exactly those four operations, each tagged with
// the Site it serves. An Injector consults its rules per call; a site
// with no armed rule costs one map-free slice scan.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Site names one injection point: a (layer, operation) pair the durable
// stores tag their filesystem calls with. Sites are a closed set so
// operators can pre-register one fault counter per site.
type Site string

const (
	// SiteStoreRead and SiteStoreWrite are the engine result store's
	// cell loads and atomic cell persists.
	SiteStoreRead  Site = "store.read"
	SiteStoreWrite Site = "store.write"
	// SiteSnapRead, SiteSnapWrite, and SiteSnapEvict are the checkpoint
	// store's payload loads, atomic checkpoint persists, and eviction
	// unlinks.
	SiteSnapRead  Site = "snap.read"
	SiteSnapWrite Site = "snap.write"
	SiteSnapEvict Site = "snap.evict"
	// SiteJournalWrite is the job journal's atomic rewrite.
	SiteJournalWrite Site = "journal.write"
)

// Sites returns every defined injection site, in stable order.
func Sites() []Site {
	return []Site{SiteStoreRead, SiteStoreWrite, SiteSnapRead, SiteSnapWrite, SiteSnapEvict, SiteJournalWrite}
}

// Kind is one failure mode an Injector can arm at a site.
type Kind string

const (
	// ENOSPC fails a write before any bytes reach disk, like a full
	// filesystem.
	ENOSPC Kind = "enospc"
	// EIO fails a read or write with a generic I/O error.
	EIO Kind = "eio"
	// Torn simulates a crash between the temp-file write and the
	// rename: the temp file is written and orphaned, the destination is
	// never updated, and the operation reports failure.
	Torn Kind = "torn"
	// Corrupt lets a read succeed but flips bytes in the payload, like
	// on-disk rot or a truncated sector, exercising the consumer's
	// validation path.
	Corrupt Kind = "corrupt"
)

// ErrInjected is wrapped by every injected failure, so tests and error
// chains can tell a synthetic fault from a real one with errors.Is.
var ErrInjected = errors.New("injected fault")

// FS is the filesystem seam. Implementations must be safe for
// concurrent use. OS is the production passthrough; an Injector is the
// chaos one. A nil FS is not usable — callers default to OS.
type FS interface {
	// ReadFile reads the file at path.
	ReadFile(site Site, path string) ([]byte, error)
	// WriteFileAtomic durably replaces path with data: it creates the
	// parent directory if needed, writes a temp file beside the
	// destination, and renames it into place, so a crash at any instant
	// leaves the old file, the new file, or an ignorable *.tmp orphan —
	// never a truncated one.
	WriteFileAtomic(site Site, path string, data []byte) error
	// Remove unlinks path.
	Remove(site Site, path string) error
	// Chtimes sets path's access and modification times (best-effort
	// recency bookkeeping; callers ignore the error).
	Chtimes(site Site, path string, t time.Time) error
}

// OS is the production FS: a direct passthrough to the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) ReadFile(_ Site, path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) WriteFileAtomic(_ Site, path string, data []byte) error {
	return writeFileAtomic(path, data, false)
}

func (osFS) Remove(_ Site, path string) error { return os.Remove(path) }

func (osFS) Chtimes(_ Site, path string, t time.Time) error { return os.Chtimes(path, t, t) }

// writeFileAtomic is the shared temp+rename idiom. torn stops after the
// temp write — the orphaned *.tmp and missing rename are exactly the
// on-disk state a crash at that instant leaves.
func writeFileAtomic(path string, data []byte, torn bool) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "w-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if torn {
		return nil // crash: the temp file survives, the rename never runs
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Rule arms one failure mode at one site.
type Rule struct {
	Site Site
	Kind Kind
	// Prob is the per-operation firing probability in (0, 1]; 0 means
	// fire on every matching operation.
	Prob float64
	// After skips the first After matching operations before the rule
	// can fire (deterministic "fail the Nth write" scheduling).
	After int
	// Count bounds how many times the rule fires; 0 is unlimited.
	Count int
}

func (r Rule) validate() error {
	switch r.Site {
	case SiteStoreRead, SiteStoreWrite, SiteSnapRead, SiteSnapWrite, SiteSnapEvict, SiteJournalWrite:
	default:
		return fmt.Errorf("fault: unknown site %q", r.Site)
	}
	switch r.Kind {
	case ENOSPC, EIO, Torn, Corrupt:
	default:
		return fmt.Errorf("fault: unknown kind %q", r.Kind)
	}
	if r.Kind == Corrupt && !siteReads(r.Site) {
		return fmt.Errorf("fault: %s only applies to read sites, not %s", r.Kind, r.Site)
	}
	if (r.Kind == Torn || r.Kind == ENOSPC) && siteReads(r.Site) {
		return fmt.Errorf("fault: %s only applies to write sites, not %s", r.Kind, r.Site)
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("fault: probability %g outside [0, 1]", r.Prob)
	}
	if r.After < 0 || r.Count < 0 {
		return fmt.Errorf("fault: negative after/count")
	}
	return nil
}

func siteReads(s Site) bool { return s == SiteStoreRead || s == SiteSnapRead }

// armedRule is a Rule plus its firing state.
type armedRule struct {
	Rule
	seen  int // matching operations observed
	fired int // times this rule fired
}

// Injector is an FS that deterministically injects the armed rules'
// failures, driven by a seeded RNG so a chaos run replays exactly from
// (seed, rules) under serial execution — and statistically under
// concurrency. The zero value is not usable; construct with NewInjector.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []*armedRule
	fired map[Site]uint64
	// OnFault, when non-nil, observes every injected fault (telemetry
	// wiring). Called without the injector's lock held.
	OnFault func(site Site, kind Kind)
}

// NewInjector builds an injector over the OS filesystem. Invalid rules
// error rather than silently never firing.
func NewInjector(seed uint64, rules ...Rule) (*Injector, error) {
	in := &Injector{
		rng:   rand.New(rand.NewSource(int64(seed))),
		fired: make(map[Site]uint64, len(Sites())),
	}
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
		rr := r
		in.rules = append(in.rules, &armedRule{Rule: rr})
	}
	return in, nil
}

// Parse builds an injector from a comma-separated spec of
// site:kind[:prob[:count]] rules — the -faults / HIRA_FAULTS knob. An
// empty spec returns (nil, nil): no injection.
//
//	store.write:enospc            every result-store write fails with ENOSPC
//	snap.read:corrupt:0.5         half of checkpoint reads are corrupted
//	journal.write:torn:1:3        the first 3 journal rewrites tear
func Parse(spec string, seed uint64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []Rule
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 4 {
			return nil, fmt.Errorf("fault: bad rule %q (want site:kind[:prob[:count]])", part)
		}
		r := Rule{Site: Site(fields[0]), Kind: Kind(fields[1])}
		if len(fields) >= 3 {
			p, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad probability in %q: %v", part, err)
			}
			r.Prob = p
		}
		if len(fields) == 4 {
			n, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("fault: bad count in %q: %v", part, err)
			}
			r.Count = n
		}
		rules = append(rules, r)
	}
	return NewInjector(seed, rules...)
}

// Fired reports how many faults have been injected at site.
func (in *Injector) Fired(site Site) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[site]
}

// hit decides whether an operation at site fails, and with which kind.
// Rules are consulted in order; the first that fires wins.
func (in *Injector) hit(site Site, applicable func(Kind) bool) (Kind, bool) {
	in.mu.Lock()
	for _, r := range in.rules {
		if r.Site != site || !applicable(r.Kind) {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Prob > 0 && in.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		in.fired[site]++
		kind := r.Kind
		onFault := in.OnFault
		in.mu.Unlock()
		if onFault != nil {
			onFault(site, kind)
		}
		return kind, true
	}
	in.mu.Unlock()
	return "", false
}

// injectedErr builds the attributable error every injected failure
// returns.
func injectedErr(kind Kind, site Site) error {
	var what string
	switch kind {
	case ENOSPC:
		what = "no space left on device"
	case EIO:
		what = "input/output error"
	case Torn:
		what = "crash before rename (torn write)"
	case Corrupt:
		what = "corrupted payload"
	}
	return fmt.Errorf("%w: %s at %s", ErrInjected, what, site)
}

func isWriteKind(k Kind) bool { return k == ENOSPC || k == EIO || k == Torn }

// ReadFile implements FS: EIO fails the read outright; Corrupt serves
// the real bytes with deterministic damage.
func (in *Injector) ReadFile(site Site, path string) ([]byte, error) {
	kind, ok := in.hit(site, func(k Kind) bool { return k == EIO || k == Corrupt })
	if ok && kind == EIO {
		return nil, injectedErr(EIO, site)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if ok && kind == Corrupt {
		data = in.corrupt(data)
	}
	return data, nil
}

// corrupt damages data in place: a byte flip mid-payload plus a
// truncating length cut half the time, driven by the seeded RNG.
func (in *Injector) corrupt(data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	in.mu.Lock()
	i := in.rng.Intn(len(data))
	trunc := in.rng.Intn(2) == 0
	in.mu.Unlock()
	data[i] ^= 0xA5
	if trunc && i > 0 {
		data = data[:i]
	}
	return data
}

// WriteFileAtomic implements FS: ENOSPC/EIO fail before any bytes land;
// Torn writes the temp file, orphans it, and reports failure — the
// crash-between-write-and-rename state.
func (in *Injector) WriteFileAtomic(site Site, path string, data []byte) error {
	kind, ok := in.hit(site, isWriteKind)
	if !ok {
		return writeFileAtomic(path, data, false)
	}
	if kind == Torn {
		writeFileAtomic(path, data, true) // best-effort: leave the orphan
	}
	return injectedErr(kind, site)
}

// Remove implements FS; EIO is the only applicable failure.
func (in *Injector) Remove(site Site, path string) error {
	if _, ok := in.hit(site, func(k Kind) bool { return k == EIO }); ok {
		return injectedErr(EIO, site)
	}
	return os.Remove(path)
}

// Chtimes implements FS. Recency touches are best-effort bookkeeping;
// faulting them proves nothing, so the injector passes through.
func (in *Injector) Chtimes(_ Site, path string, t time.Time) error {
	return os.Chtimes(path, t, t)
}
