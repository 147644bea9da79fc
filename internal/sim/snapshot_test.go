package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"hira/internal/dram"
	"hira/internal/snap"
	"hira/internal/workload"
)

// resumeCase is one system shape TestResumeEquivalence checkpoints: a
// refresh policy, the forensics mode, and whether core 0 runs a
// double-sided attacker instead of its benign workload.
type resumeCase struct {
	name      string
	policy    RefreshPolicy
	forensics ForensicsOptions
	attacker  bool
}

// resumeCases covers the six figure policy shapes (ideal, conventional
// REF, periodic HiRA at two slacks, PARA, and PARA+HiRA), the mitigation
// zoo, and the attack-sweep shapes: forensics with and without the
// flight recorder, each under an attacker core. (At these horizons the
// hammer stays below the recorder's trigger, so only its pre-trigger
// ring is in play here; TestForensicsSnapshotDeltaChain restores a
// recorder holding events.)
func resumeCases() []resumeCase {
	fx := ForensicsOptions{Enabled: true}
	rec := ForensicsOptions{Enabled: true, Recorder: true}
	baseNRH := BaselinePolicy()
	baseNRH.NRH = 64
	return []resumeCase{
		{name: "NoRefresh", policy: NoRefreshPolicy()},
		{name: "Baseline", policy: BaselinePolicy()},
		{name: "HiRA-2", policy: HiRAPeriodicPolicy(2)},
		{name: "HiRA-8", policy: HiRAPeriodicPolicy(8)},
		{name: "PARA", policy: PARAPolicy(256)},
		{name: "HiRA-4", policy: PARAHiRAPolicy(256, 4)}, // PARA+HiRA, under its policy name
		{name: "Graphene", policy: GraphenePolicy(128, 0)},
		{name: "RFM", policy: RFMPolicy(128, 0)},
		{name: "attack-Baseline-forensics", policy: baseNRH, forensics: fx, attacker: true},
		{name: "attack-PARA-forensics", policy: PARAPolicy(64), forensics: fx, attacker: true},
		{name: "attack-Graphene-forensics", policy: GraphenePolicy(64, 0), forensics: fx, attacker: true},
		{name: "attack-RFM-recorder", policy: RFMPolicy(64, 0), forensics: rec, attacker: true},
	}
}

// mix returns the case's workload mix for cfg's organization.
func (c resumeCase) mix(t testing.TB, cfg Config) workload.SourceMix {
	mix := workload.Mixes(1, cfg.Cores, 5)[0].Sources()
	if !c.attacker {
		return mix
	}
	atk, err := attackMix("double", OrgFor(cfg), mix)
	if err != nil {
		t.Fatal(err)
	}
	return atk
}

// TestResumeEquivalence proves the Snapshot/Restore tentpole guarantee:
// snapshotting a system at an arbitrary tick, restoring it, and running
// on is bit-identical to the straight-through run — same command stream,
// same cumulative stats, same measured-phase result, forensics summary
// included — across every case of resumeCases, with snapshot points
// both inside the warmup and inside the measured phase. Snapshots are
// in the current format, whose LLC section carries only occupied lines.
func TestResumeEquivalence(t *testing.T) {
	warmup, measure := 3000, 9000
	if testing.Short() {
		warmup, measure = 1000, 4000
	}
	for _, tc := range resumeCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Cores = 4
			cfg.ChipCapacityGbit = 32
			cfg.Policy = tc.policy
			cfg.Seed = 5
			cfg.Forensics = tc.forensics
			mix := tc.mix(t, cfg)

			// Straight-through reference.
			ref, err := NewSystem(cfg, mix)
			if err != nil {
				t.Fatal(err)
			}
			var refCmds []dram.Command
			ref.ctrl.CommandHook = func(c dram.Command) { refCmds = append(refCmds, c) }
			refRes := runCold(t, ref, warmup, measure)

			for _, snapAt := range []int{warmup * 2 / 3, warmup + measure/2} {
				snapAt := snapAt
				// Prefix run to the snapshot point, replicating the
				// phase bookkeeping runCold would have done so far.
				pre, err := NewSystem(cfg, mix)
				if err != nil {
					t.Fatal(err)
				}
				var cmds []dram.Command
				hook := func(c dram.Command) { cmds = append(cmds, c) }
				pre.ctrl.CommandHook = hook
				ctx := context.Background()
				var mark runMark
				if snapAt >= warmup {
					if err := pre.RunTo(ctx, warmup); err != nil {
						t.Fatal(err)
					}
					mark = pre.mark()
				}
				if err := pre.RunTo(ctx, snapAt); err != nil {
					t.Fatal(err)
				}
				data, err := pre.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !hasMagic(data, snapshotMagic) {
					t.Fatalf("snapshot lacks the %s magic", snapshotMagic)
				}
				if occ := pre.llc.Occupied(); !tc.forensics.Enabled && len(data) > occ*checkpointLineBytes+checkpointHeaderBytes {
					t.Fatalf("snapshot %d bytes is not sized by its %d occupied LLC lines", len(data), occ)
				}

				// Restore and finish the run on the restored machine.
				res, err := RestoreSystem(cfg, mix, data)
				if err != nil {
					t.Fatalf("restore at %d: %v", snapAt, err)
				}
				if res.Ticks() != snapAt {
					t.Fatalf("restored at tick %d, want %d", res.Ticks(), snapAt)
				}
				res.ctrl.CommandHook = hook
				if snapAt < warmup {
					if err := res.RunTo(ctx, warmup); err != nil {
						t.Fatal(err)
					}
					mark = res.mark()
				}
				if err := res.RunTo(ctx, warmup+measure); err != nil {
					t.Fatal(err)
				}
				got := res.resultSince(mark, measure)

				if len(cmds) != len(refCmds) {
					t.Fatalf("snap@%d: command counts diverged: resumed %d ref %d",
						snapAt, len(cmds), len(refCmds))
				}
				for i := range refCmds {
					if cmds[i] != refCmds[i] {
						t.Fatalf("snap@%d: command %d diverged:\nresumed: %+v\nref:     %+v",
							snapAt, i, cmds[i], refCmds[i])
					}
				}
				if got.Sched != refRes.Sched {
					t.Fatalf("snap@%d: stats diverged:\nresumed: %+v\nref:     %+v",
						snapAt, got.Sched, refRes.Sched)
				}
				for i := range refRes.IPC {
					if got.IPC[i] != refRes.IPC[i] {
						t.Fatalf("snap@%d: core %d IPC diverged: resumed %v ref %v",
							snapAt, i, got.IPC[i], refRes.IPC[i])
					}
				}
				if !reflect.DeepEqual(got.Forensics, refRes.Forensics) {
					t.Fatalf("snap@%d: forensics diverged:\nresumed: %+v\nref:     %+v",
						snapAt, got.Forensics, refRes.Forensics)
				}
				if tc.forensics.Enabled && got.Forensics == nil {
					t.Fatalf("snap@%d: forensics system reported no summary", snapAt)
				}
				if got.LLCHitRate != refRes.LLCHitRate {
					t.Fatalf("snap@%d: LLC hit rate diverged: resumed %v ref %v",
						snapAt, got.LLCHitRate, refRes.LLCHitRate)
				}
				if res.ctrl.Now() != ref.ctrl.Now() {
					t.Fatalf("snap@%d: clocks diverged", snapAt)
				}
			}
		})
	}
}

// TestSnapshotDeterministic proves a snapshot is a pure function of the
// machine state: snapshotting twice (and snapshotting a restored system)
// yields identical bytes, which the content-addressed store relies on.
func TestSnapshotDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.ChipCapacityGbit = 8
	cfg.Policy = PARAHiRAPolicy(512, 2)
	mix := workload.Mixes(1, 2, 1)[0].Sources()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunTo(context.Background(), 2500); err != nil {
		t.Fatal(err)
	}
	a, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("re-snapshotting the same state produced different bytes")
	}
	restored, err := RestoreSystem(cfg, mix, a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("snapshot of a restored system diverged from the original")
	}
}

// TestRestoreRejectsMismatch covers the clean-miss contract for
// well-formed-but-wrong inputs: a snapshot restores only into the
// trajectory it was taken from.
func TestRestoreRejectsMismatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.ChipCapacityGbit = 8
	mix := workload.Mixes(1, 2, 1)[0].Sources()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunTo(context.Background(), 500); err != nil {
		t.Fatal(err)
	}
	data, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 99
	if _, err := RestoreSystem(other, mix, data); err == nil {
		t.Fatal("snapshot restored into a different trajectory")
	}
	if _, err := RestoreSystem(cfg, mix, data[:len(data)-3]); err == nil {
		t.Fatal("truncated snapshot restored")
	}
	if _, err := RestoreSystem(cfg, mix, []byte("not a snapshot")); err == nil {
		t.Fatal("garbage restored")
	}
}

// fuzzSnapshotConfig is the small fixed system FuzzSnapshotDecode decodes
// into (the config is trusted; only the snapshot bytes are hostile).
func fuzzSnapshotConfig() (Config, workload.SourceMix) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.ChipCapacityGbit = 2
	cfg.Policy = PARAHiRAPolicy(512, 2)
	cfg.Seed = 3
	return cfg, workload.Mixes(1, 2, 3)[0].Sources()
}

// fuzzSnapshotSystem is one trusted (config, mix) the snapshot fuzz
// targets decode into.
type fuzzSnapshotSystem struct {
	cfg Config
	mix workload.SourceMix
}

// fuzzSnapshotSystems returns the systems the snapshot fuzz targets
// decode into: fuzzSnapshotConfig's plain PARA+HiRA machine, and two
// attack cells — a double-sided attacker under Graphene with the
// forensics ledger and flight recorder, and one under RFM with the
// ledger alone — so the zoo, ledger, recorder and attacker-stream
// decoders all face hostile bytes.
func fuzzSnapshotSystems(t testing.TB) []fuzzSnapshotSystem {
	cfg, mix := fuzzSnapshotConfig()
	out := []fuzzSnapshotSystem{{cfg, mix}}
	for _, zoo := range []struct {
		pol RefreshPolicy
		fx  ForensicsOptions
	}{
		{GraphenePolicy(64, 4), ForensicsOptions{Enabled: true, Recorder: true}},
		{RFMPolicy(64, 0), ForensicsOptions{Enabled: true}},
	} {
		c := cfg
		c.Policy = zoo.pol
		c.Forensics = zoo.fx
		atk, err := attackMix("double", OrgFor(c), mix)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fuzzSnapshotSystem{c, atk})
	}
	return out
}

// ledgerEnd returns the offset in a full or delta snapshot of s where
// its forensics ledger section ends (the refresh engine's section
// follows it to the end), so seeds can corrupt ledger bytes.
func ledgerEnd(s *System, data []byte) int {
	w := snap.NewWriter()
	s.engine.Snapshot(w)
	return len(data) - len(w.Bytes())
}

// corruptSeeds returns copies of data with a byte flipped at each of
// the given offsets.
func corruptSeeds(data []byte, offsets ...int) [][]byte {
	var out [][]byte
	for _, off := range offsets {
		if off < 0 || off >= len(data) {
			continue
		}
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x41
		out = append(out, mut)
	}
	return out
}

// FuzzSnapshotDecode holds RestoreSystem to the FuzzTraceRead contract:
// corrupt or truncated checkpoints are clean misses — they never panic,
// allocation stays bounded by the input, and anything that does decode
// yields a machine that survives being run. Seeds cover every system of
// fuzzSnapshotSystems, with ledger bytes corrupted and truncated.
func FuzzSnapshotDecode(f *testing.F) {
	systems := fuzzSnapshotSystems(f)
	for i, fs := range systems {
		sys, err := NewSystem(fs.cfg, fs.mix)
		if err != nil {
			f.Fatal(err)
		}
		if err := sys.RunTo(context.Background(), 6000); err != nil {
			f.Fatal(err)
		}
		seed, err := sys.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(corruptSeeds(seed, len(seed)/3)[0])
		if i == 0 {
			f.Add([]byte(snapshotMagic))
			for _, old := range legacySystemMagics {
				f.Add(withMagic(seed, old))
			}
			f.Add([]byte("HIRASYS1\x00\x00\x00\x00"))
			continue
		}
		end := ledgerEnd(sys, seed)
		f.Add(seed[:end-2])
		for _, mut := range corruptSeeds(seed, end-1, end-4, end-9, end-30) {
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fs := range systems {
			restored, err := RestoreSystem(fs.cfg, fs.mix, data)
			if err != nil {
				continue // clean miss
			}
			if !hasMagic(data, snapshotMagic) {
				t.Fatalf("restored a snapshot without the %s magic", snapshotMagic)
			}
			// A snapshot that passed validation must be safe to simulate.
			for i := 0; i < 64; i++ {
				restored.Tick()
			}
		}
	})
}

// Magics of the retired full-snapshot formats. Their checkpoints live
// under older trajectory tags and are never looked up; a stray one that
// reaches a decoder must be a clean miss.
var (
	legacySystemMagics = []string{"HIRASYS1", "HIRASYS2", "HIRASYS3"}
	legacyDeltaMagics  = []string{"HIRADLT1"}
)

// withMagic returns a copy of data with its 8-byte format magic replaced.
func withMagic(data []byte, magic string) []byte {
	out := append([]byte(nil), data...)
	copy(out, magic)
	return out
}

// TestLegacySnapshotsMiss pins the format bumps: full and differential
// checkpoints carrying a retired magic are rejected by every decoder,
// however well-formed the rest of their bytes.
func TestLegacySnapshotsMiss(t *testing.T) {
	cfg, mix := fuzzSnapshotConfig()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunTo(context.Background(), 600); err != nil {
		t.Fatal(err)
	}
	data, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range legacySystemMagics {
		stale := withMagic(data, old)
		if _, err := RestoreSystem(cfg, mix, stale); err == nil {
			t.Errorf("%s snapshot restored", old)
		}
		if _, _, _, err := readSnapshotMark(stale, cfg.Cores); err == nil {
			t.Errorf("%s snapshot's mark was read", old)
		}
	}
	sys.ResetTouchedLines()
	if err := sys.RunTo(context.Background(), 900); err != nil {
		t.Fatal(err)
	}
	delta, err := sys.SnapshotDelta(600, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range legacyDeltaMagics {
		stale := withMagic(delta, old)
		if _, _, _, _, err := readDeltaHeader(stale); err == nil {
			t.Errorf("%s delta's header was read", old)
		}
		base, err := RestoreSystem(cfg, mix, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := applySystemDelta(base, stale); err == nil {
			t.Errorf("%s delta applied", old)
		}
	}
}
