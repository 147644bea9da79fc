package sim

import (
	"testing"

	"hira/internal/dram"
	"hira/internal/sched"
	"hira/internal/workload"
)

// TestRunMatchesTickByTick proves the System's fast-forward layer (core
// budget replay + controller SkipTicks) is bit-identical to ticking the
// system one command clock at a time: same command stream, same stats,
// same IPC. Together with the sched package's differential tests (which
// hold the optimized controller equal to the seed-style reference), this
// covers the full optimized path.
func TestRunMatchesTickByTick(t *testing.T) {
	policies := []RefreshPolicy{
		BaselinePolicy(),
		HiRAPeriodicPolicy(2),
		PARAPolicy(256),
		PARAHiRAPolicy(256, 4),
	}
	warmup, measure := 4000, 16000
	if testing.Short() {
		warmup, measure = 1000, 6000
	}
	mix := workload.Mixes(1, 8, 3)[0].Sources()
	for _, pol := range policies {
		pol := pol
		t.Run(pol.Name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ChipCapacityGbit = 32
			cfg.Policy = pol
			cfg.Seed = 3

			build := func() (*System, *[]dram.Command) {
				sys, err := NewSystem(cfg, mix)
				if err != nil {
					t.Fatal(err)
				}
				cmds := &[]dram.Command{}
				sys.ctrl.CommandHook = func(cmd dram.Command) { *cmds = append(*cmds, cmd) }
				return sys, cmds
			}

			// Fast path: runCold (skips idle windows).
			fast, fastCmds := build()
			fastRes := runCold(t, fast, warmup, measure)

			// Reference path: one Tick per command clock, replicating
			// runCold's warmup/measure bookkeeping.
			ref, refCmds := build()
			for i := 0; i < warmup; i++ {
				ref.Tick()
			}
			retired := make([]uint64, len(ref.cores))
			for i := range ref.cores {
				retired[i] = ref.cores[i].Retired
			}
			ref.ctrl.Stats = sched.Stats{}
			for i := 0; i < measure; i++ {
				ref.Tick()
			}

			if len(*fastCmds) != len(*refCmds) {
				t.Fatalf("command counts diverged: fast %d ref %d", len(*fastCmds), len(*refCmds))
			}
			for i := range *refCmds {
				if (*fastCmds)[i] != (*refCmds)[i] {
					t.Fatalf("command %d diverged:\nfast: %+v\nref:  %+v", i, (*fastCmds)[i], (*refCmds)[i])
				}
			}
			if fastRes.Sched != ref.ctrl.Stats {
				t.Fatalf("stats diverged:\nfast: %+v\nref:  %+v", fastRes.Sched, ref.ctrl.Stats)
			}
			cycles := float64(measure) * cpuCyclesPerTick
			for i, c := range ref.cores {
				refIPC := float64(c.Retired-retired[i]) / cycles
				if fastRes.IPC[i] != refIPC {
					t.Fatalf("core %d IPC diverged: fast %v ref %v", i, fastRes.IPC[i], refIPC)
				}
			}
			if fast.ctrl.Now() != ref.ctrl.Now() {
				t.Fatalf("clocks diverged: fast %v ref %v", fast.ctrl.Now(), ref.ctrl.Now())
			}
		})
	}
}

func TestWBRing(t *testing.T) {
	var r wbRing
	mk := func(row int) sched.Request {
		return sched.Request{Loc: dram.Location{Row: row}, Write: true}
	}
	if r.len() != 0 {
		t.Fatal("new ring not empty")
	}
	// Interleave pushes and pops across several growth cycles so the ring
	// wraps with a non-zero head.
	next, expect := 0, 0
	for round := 0; round < 6; round++ {
		for i := 0; i < 5+round*3; i++ {
			r.push(mk(next))
			next++
		}
		for i := 0; i < 3+round*2 && r.len() > 0; i++ {
			if got := r.front().Loc.Row; got != expect {
				t.Fatalf("front = %d, want %d (FIFO broken)", got, expect)
			}
			r.pop()
			expect++
		}
	}
	for r.len() > 0 {
		if got := r.front().Loc.Row; got != expect {
			t.Fatalf("front = %d, want %d during drain", got, expect)
		}
		r.pop()
		expect++
	}
	if expect != next {
		t.Fatalf("popped %d items, pushed %d", expect, next)
	}
	// Reuse after full drain must not allocate a fresh buffer per push.
	capBefore := len(r.buf)
	for i := 0; i < capBefore; i++ {
		r.push(mk(i))
	}
	if len(r.buf) != capBefore {
		t.Fatalf("ring grew from %d to %d while within capacity", capBefore, len(r.buf))
	}
}
