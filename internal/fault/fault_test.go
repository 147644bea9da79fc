package fault

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestOSWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "cell.json")
	if err := OS.WriteFileAtomic(SiteStoreWrite, path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got, _ := OS.ReadFile(SiteStoreRead, path); string(got) != "v1" {
		t.Fatalf("read back %q", got)
	}
	if err := OS.WriteFileAtomic(SiteStoreWrite, path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := OS.ReadFile(SiteStoreRead, path); string(got) != "v2" {
		t.Fatalf("overwrite read back %q", got)
	}
	// No temp files survive a successful write.
	entries, err := os.ReadDir(filepath.Join(dir, "sub"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("orphan temp file %s after successful write", e.Name())
		}
	}
}

func TestInjectorWriteKinds(t *testing.T) {
	for _, kind := range []Kind{ENOSPC, EIO, Torn} {
		t.Run(string(kind), func(t *testing.T) {
			dir := t.TempDir()
			in, err := NewInjector(1, Rule{Site: SiteStoreWrite, Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "cell.json")
			werr := in.WriteFileAtomic(SiteStoreWrite, path, []byte("payload"))
			if !errors.Is(werr, ErrInjected) {
				t.Fatalf("err = %v, want ErrInjected", werr)
			}
			if !strings.Contains(werr.Error(), string(SiteStoreWrite)) {
				t.Errorf("error %q does not name the site", werr)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("destination exists after injected %s", kind)
			}
			entries, _ := os.ReadDir(dir)
			orphans := 0
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".tmp") {
					orphans++
				}
			}
			if kind == Torn && orphans != 1 {
				t.Errorf("torn write left %d temp orphans, want 1", orphans)
			}
			if kind != Torn && orphans != 0 {
				t.Errorf("%s left %d temp orphans, want 0", kind, orphans)
			}
			if got := in.Fired(SiteStoreWrite); got != 1 {
				t.Errorf("Fired = %d, want 1", got)
			}
			// Unrelated sites are untouched.
			if err := in.WriteFileAtomic(SiteSnapWrite, filepath.Join(dir, "s.snap"), []byte("x")); err != nil {
				t.Errorf("unarmed site failed: %v", err)
			}
		})
	}
}

func TestInjectorReadKinds(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.json")
	orig := []byte("a perfectly intact payload")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}

	in, err := NewInjector(7, Rule{Site: SiteStoreRead, Kind: EIO, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, rerr := in.ReadFile(SiteStoreRead, path); !errors.Is(rerr, ErrInjected) {
		t.Fatalf("EIO read err = %v", rerr)
	}
	// Count exhausted: subsequent reads pass through.
	if got, rerr := in.ReadFile(SiteStoreRead, path); rerr != nil || string(got) != string(orig) {
		t.Fatalf("post-count read = %q, %v", got, rerr)
	}

	cin, err := NewInjector(7, Rule{Site: SiteStoreRead, Kind: Corrupt})
	if err != nil {
		t.Fatal(err)
	}
	got, rerr := cin.ReadFile(SiteStoreRead, path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) == string(orig) {
		t.Fatal("corrupt read returned intact payload")
	}
	// The file itself is never damaged.
	if disk, _ := os.ReadFile(path); string(disk) != string(orig) {
		t.Fatal("corrupt read damaged the on-disk file")
	}
}

func TestInjectorDeterministic(t *testing.T) {
	run := func() []bool {
		in, err := NewInjector(42, Rule{Site: SiteSnapWrite, Kind: ENOSPC, Prob: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		out := make([]bool, 64)
		for i := range out {
			err := in.WriteFileAtomic(SiteSnapWrite, filepath.Join(dir, "f"), []byte("x"))
			out[i] = err != nil
		}
		return out
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.5 rule fired %d/%d times", fired, len(a))
	}
}

func TestInjectorAfter(t *testing.T) {
	in, err := NewInjector(1, Rule{Site: SiteJournalWrite, Kind: EIO, After: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "journal")
	for i := 0; i < 2; i++ {
		if err := in.WriteFileAtomic(SiteJournalWrite, path, []byte("x")); err != nil {
			t.Fatalf("op %d failed before After: %v", i, err)
		}
	}
	if err := in.WriteFileAtomic(SiteJournalWrite, path, []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("op after After = %v, want ErrInjected", err)
	}
}

func TestParse(t *testing.T) {
	in, err := Parse("store.write:enospc, snap.read:corrupt:0.5, journal.write:torn:1:3", 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(in.rules); got != 3 {
		t.Fatalf("parsed %d rules", got)
	}
	if in.rules[1].Prob != 0.5 || in.rules[2].Count != 3 || in.rules[2].Prob != 1 {
		t.Fatalf("rules mis-parsed: %+v %+v", in.rules[1], in.rules[2])
	}
	if in, err := Parse("", 0); in != nil || err != nil {
		t.Fatalf("empty spec = %v, %v", in, err)
	}
	for _, bad := range []string{
		"store.write",               // missing kind
		"nowhere:eio",               // unknown site
		"store.read:torn",           // torn is write-only
		"store.write:corrupt",       // corrupt is read-only
		"store.write:enospc:2",      // probability out of range
		"store.write:enospc:0.5:-1", // negative count
	} {
		if _, err := Parse(bad, 0); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestInjectorCallbacksAndChtimes(t *testing.T) {
	in, err := NewInjector(3, Rule{Site: SiteSnapEvict, Kind: EIO})
	if err != nil {
		t.Fatal(err)
	}
	var sawSite Site
	var sawKind Kind
	in.OnFault = func(s Site, k Kind) { sawSite, sawKind = s, k }
	if err := in.Remove(SiteSnapEvict, filepath.Join(t.TempDir(), "x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Remove = %v", err)
	}
	if sawSite != SiteSnapEvict || sawKind != EIO {
		t.Fatalf("OnFault saw (%s, %s)", sawSite, sawKind)
	}
	var fired uint64
	for _, n := range in.fired {
		fired += n
	}
	if fired != 1 {
		t.Fatalf("faults fired = %d", fired)
	}
	// Chtimes never faults.
	path := filepath.Join(t.TempDir(), "f")
	os.WriteFile(path, []byte("x"), 0o644)
	if err := in.Chtimes(SiteSnapRead, path, time.Now()); err != nil {
		t.Fatal(err)
	}
}
