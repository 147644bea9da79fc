package sim

// Golden cell-key suite: the exact bytes of every key a sweep derives —
// sim cell, trajectory and alone cell — are pinned here. Result stores,
// checkpoint stores and the trajectory cross-check inside every snapshot
// are addressed by these strings, so any byte that moves silently turns
// a warm store cold (or, worse, lets two distinct cells alias). A key
// change must be deliberate: bump the key's version prefix and update
// this table in the same change.

import (
	"fmt"
	"math"
	"testing"

	"hira/internal/dram"
	"hira/internal/workload"
)

// goldenKeyCase is one (config, mix) point and the keys it must render.
type goldenKeyCase struct {
	name            string
	cfg             Config
	mix             workload.SourceMix
	warmup, measure int
	sim, traj       string
	alone           []string // per core: aloneCellKey at ticks=measure
}

// renderGoldenKeys renders every key of c through the cells a sweep
// submits (their closures are never run, so no engine is needed), with
// alone seeds chosen as runSweep chooses them.
func renderGoldenKeys(c goldenKeyCase) (sim, traj string, alone []string) {
	id := identify(c.mix)
	sim = simCell(nil, c.cfg, c.mix, id.wl, c.warmup, c.measure).Key
	traj = trajectoryKey(c.cfg, id.wl)
	for core, src := range c.mix.Sources {
		seed := aloneRefSeed(src, c.cfg.Seed, core)
		alone = append(alone, aloneCell(src, id.srcs[core], seed, c.measure).Key)
	}
	return sim, traj, alone
}

func goldenKeyCases(t *testing.T) []goldenKeyCase {
	t.Helper()
	builtin := DefaultConfig()
	builtin.Cores = 2
	builtin.SPTCoverage = 0 // exercises the default-coverage fallback
	builtin.Policy = HiRAPeriodicPolicy(2)

	awkward := DefaultConfig()
	awkward.Cores = 3
	tenth, fifth := 0.1, 0.2
	sum := tenth + fifth // 0.30000000000000004, unlike the constant 0.1 + 0.2
	negZero := math.Copysign(0, -1)
	awkward.SPTCoverage = sum
	awkward.Seed = 7
	awkward.Policy = PARAPolicy(64)

	atk, err := workload.NewAttack(workload.AttackSpec{Kind: workload.AttackDouble, VictimRow: 300}, dram.DefaultOrg())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.NewTrace("t", []workload.Access{
		{Addr: 0, Gap: 1}, {Addr: 64, Write: true, Gap: 3}, {Addr: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	mitigated := DefaultConfig()
	mitigated.Cores = 2
	mitigated.ChipCapacityGbit = 32
	mitigated.Channels = 2
	mitigated.Ranks = 2
	mitigated.Policy = GraphenePolicy(64, 16)
	mitigated.Forensics = ForensicsOptions{Enabled: true, Recorder: true}

	plainFx := DefaultConfig()
	plainFx.Cores = 1
	plainFx.Policy = PARAHiRAPolicy(128, 4)
	plainFx.Forensics = ForensicsOptions{Enabled: true}

	mcf, _ := workload.ProfileByName("mcf")
	return []goldenKeyCase{
		{
			name: "builtin-default-spt", cfg: builtin, warmup: 3000, measure: 10000,
			mix:  workload.Mixes(1, 2, 1)[0].Sources(),
			sim:  "sim/v2 cores=2 cap=8 ch=1 rk=1 spt=0.32 seed=1 per=2 prev=0 slack=2 nrh=0 warm=3000 meas=10000 wl=povray(0.1,0.4,5,0.25),mcf(60,0.25,1600,0.25)",
			traj: "traj/v3 cores=2 cap=8 ch=1 rk=1 spt=0.32 seed=1 per=2 prev=0 slack=2 nrh=0 wl=povray(0.1,0.4,5,0.25),mcf(60,0.25,1600,0.25)",
			alone: []string{
				"alone/v2 wl=povray(0.1,0.4,5,0.25) seed=1000014 ticks=10000",
				"alone/v2 wl=mcf(60,0.25,1600,0.25) seed=1007933 ticks=10000",
			},
		},
		{
			name: "custom-profile-awkward-floats", cfg: awkward, warmup: 0, measure: 1,
			mix: workload.SourceMix{ID: 3, Sources: []workload.Source{
				workload.Profile{Name: "odd", MPKI: sum, RowLocality: negZero, FootprintMB: 64, WriteFrac: math.NaN()},
				workload.Profile{Name: "big", MPKI: 1e21, RowLocality: math.Inf(1), FootprintMB: -1, WriteFrac: math.Inf(-1)},
				workload.Profile{Name: "edge", MPKI: 1e20, RowLocality: 5e-324, FootprintMB: 0, WriteFrac: 123456789.125},
			}},
			sim:  "sim/v2 cores=3 cap=8 ch=1 rk=1 spt=0.30000000000000004 seed=7 per=1 prev=1 slack=0 nrh=64 warm=0 meas=1 wl=odd(0.30000000000000004,-0,64,NaN),big(1e+21,+Inf,-1,-Inf),edge(1e+20,5e-324,0,1.23456789125e+08)",
			traj: "traj/v3 cores=3 cap=8 ch=1 rk=1 spt=0.30000000000000004 seed=7 per=1 prev=1 slack=0 nrh=64 wl=odd(0.30000000000000004,-0,64,NaN),big(1e+21,+Inf,-1,-Inf),edge(1e+20,5e-324,0,1.23456789125e+08)",
			alone: []string{
				"alone/v2 wl=odd(0.30000000000000004,-0,64,NaN) seed=7000032 ticks=1",
				"alone/v2 wl=big(1e+21,+Inf,-1,-Inf) seed=7007951 ticks=1",
				"alone/v2 wl=edge(1e+20,5e-324,0,1.23456789125e+08) seed=7015870 ticks=1",
			},
		},
		{
			name: "attack-trace-mitigation-recorder", cfg: mitigated, warmup: 20000, measure: 60000,
			mix:  workload.SourceMix{ID: 1, Sources: []workload.Source{atk, tr}},
			sim:  "sim/v2 cores=2 cap=32 ch=2 rk=2 spt=0.32 seed=1 per=0 prev=0 slack=0 nrh=64 warm=20000 meas=60000 wl=attack(double,ch=0,rk=0,bk=0,v=300,ag=2,ev=9,burst=0,idle=0,dec=0,seq=false;org=1x1x4x4x65536x8192),trace@sha256:2c8aac4f6aa2eb9bb91ebc0b275daecdfa3a858e494bb52b59ee14ea6eac21b4 mit=graphene mp=16 fx=1 fxrec=true",
			traj: "traj/v3 cores=2 cap=32 ch=2 rk=2 spt=0.32 seed=1 per=0 prev=0 slack=0 nrh=64 wl=attack(double,ch=0,rk=0,bk=0,v=300,ag=2,ev=9,burst=0,idle=0,dec=0,seq=false;org=1x1x4x4x65536x8192),trace@sha256:2c8aac4f6aa2eb9bb91ebc0b275daecdfa3a858e494bb52b59ee14ea6eac21b4 mit=graphene mp=16 fx=1 fxrec=true",
			alone: []string{
				"alone/v2 wl=attack(double,ch=0,rk=0,bk=0,v=300,ag=2,ev=9,burst=0,idle=0,dec=0,seq=false;org=1x1x4x4x65536x8192) seed=0 ticks=60000",
				"alone/v2 wl=trace@sha256:2c8aac4f6aa2eb9bb91ebc0b275daecdfa3a858e494bb52b59ee14ea6eac21b4 seed=0 ticks=60000",
			},
		},
		{
			name: "forensics-no-recorder", cfg: plainFx, warmup: 100, measure: 200,
			mix:  workload.SourceMix{Sources: []workload.Source{mcf}},
			sim:  "sim/v2 cores=1 cap=8 ch=1 rk=1 spt=0.32 seed=1 per=1 prev=2 slack=4 nrh=128 warm=100 meas=200 wl=mcf(60,0.25,1600,0.25) fx=1 fxrec=false",
			traj: "traj/v3 cores=1 cap=8 ch=1 rk=1 spt=0.32 seed=1 per=1 prev=2 slack=4 nrh=128 wl=mcf(60,0.25,1600,0.25) fx=1 fxrec=false",
			alone: []string{
				"alone/v2 wl=mcf(60,0.25,1600,0.25) seed=1000014 ticks=200",
			},
		},
	}
}

func TestGoldenCellKeys(t *testing.T) {
	for _, c := range goldenKeyCases(t) {
		t.Run(c.name, func(t *testing.T) {
			sim, traj, alone := renderGoldenKeys(c)
			check := func(what, got, want string) {
				if got != want {
					t.Errorf("%s key moved:\n got %q\nwant %q", what, got, want)
				}
			}
			check("sim cell", sim, c.sim)
			check("trajectory", traj, c.traj)
			if len(alone) != len(c.alone) {
				t.Fatalf("rendered %d alone keys, want %d", len(alone), len(c.alone))
			}
			for i := range alone {
				check(fmt.Sprintf("core %d alone cell", i), alone[i], c.alone[i])
			}
		})
	}
}
