package sim

import (
	"context"
	"testing"
	"time"

	"hira/internal/workload"
)

// tickCase is one busy-tick workload: a system configuration and its
// mix, run to a steady state before ticks are measured.
type tickCase struct {
	name string
	cfg  Config
	mix  func(testing.TB, Config) workload.SourceMix
}

func benignMix(_ testing.TB, cfg Config) workload.SourceMix {
	return workload.Mixes(1, cfg.Cores, cfg.Seed)[0].Sources()
}

// tickCases returns the Fig. 9 HiRA-2 point at 128 Gb on a benign
// 8-core mix, and a double-sided attack under Graphene with the
// forensics ledger (the attack grid's ACT-heavy hot path).
func tickCases() []tickCase {
	fig9 := DefaultConfig()
	fig9.ChipCapacityGbit = 128
	fig9.Policy = HiRAPeriodicPolicy(2)
	attack := DefaultConfig()
	attack.Policy = GraphenePolicy(64, 0)
	attack.Forensics = ForensicsOptions{Enabled: true}
	return []tickCase{
		{"fig9-hira2-128gb", fig9, benignMix},
		{"attack-graphene-forensics", attack, func(tb testing.TB, cfg Config) workload.SourceMix {
			mix, err := attackMix("double", OrgFor(cfg), benignMix(tb, cfg))
			if err != nil {
				tb.Fatal(err)
			}
			return mix
		}},
	}
}

// warmSystem builds c's system and runs it past its cold start, so the
// queues, the LLC and the ledger are in steady state.
func (c tickCase) warmSystem(tb testing.TB) *System {
	sys, err := NewSystem(c.cfg, c.mix(tb, c.cfg))
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.RunTo(context.Background(), 30000); err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestBusyTickAllocatesNothing pins the steady-state busy tick at zero
// heap allocations: a full System.Tick (cores, LLC, address decode,
// controller, refresh engine and, on the attack mix, the forensics
// ledger) and an alone-IPC reference tick. Each run is a batch of
// allocBatch ticks, because AllocsPerRun truncates its average: one
// allocation every other tick would read as zero per single tick.
func TestBusyTickAllocatesNothing(t *testing.T) {
	const allocBatch = 1000
	for _, c := range tickCases() {
		sys := c.warmSystem(t)
		allocs := testing.AllocsPerRun(20, func() {
			for i := 0; i < allocBatch; i++ {
				sys.Tick()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per %d System.Tick calls", c.name, allocs, allocBatch)
		}
	}
	ctx := context.Background()
	a := newAloneRun(workload.SPEC2006Profiles()[0], 1)
	if err := a.RunTo(ctx, 30000); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := a.RunTo(ctx, a.tick+allocBatch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("alone run: %v allocations per %d ticks", allocs, allocBatch)
	}
}

// BenchmarkSystemTick measures busy ticks: System.Tick called once per
// command clock, never fast-forwarded, on a steady-state system.
// Reports ns/tick (equal to ns/op) and allocs/op.
func BenchmarkSystemTick(b *testing.B) {
	for _, c := range tickCases() {
		b.Run(c.name, func(b *testing.B) {
			sys := c.warmSystem(b)
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				sys.Tick()
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N), "ns/tick")
		})
	}
}
