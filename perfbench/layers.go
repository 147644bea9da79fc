package main

import (
	"context"
	"fmt"
	"time"

	"hira/internal/sim"
	"hira/internal/workload"
)

// simLayers times the simulator's public System calls on the
// workload's own config: construction, idle-skipping RunTo and single
// busy Ticks on t.mix, and the checkpoint codec (full snapshot, a delta
// after one checkpoint interval, and restore) on t.codecMix when set,
// which differs from t.mix only where t.mix has a source whose stream
// cannot be checkpointed (the attackers).
func simLayers(r *run, t layerTargets) error {
	ctx := context.Background()
	cfg, mix := t.cfg, t.mix
	const (
		warm     = 20000 // ticks before measuring, so caches and queues are loaded
		runTicks = 60000
		busyN    = 20000
		reps     = 5
	)
	timed := func(name string, fn func() error) (time.Duration, error) {
		sp := r.spans.start(name, -1)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		r.spans.end(sp)
		return d, err
	}
	medianOf := func(name string, fn func() error) (float64, error) {
		var xs []float64
		for i := 0; i < reps; i++ {
			d, err := timed(name, fn)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			xs = append(xs, micros(d))
		}
		return median(xs), nil
	}

	var sys *sim.System
	newUS, err := medianOf("sim.NewSystem", func() (err error) {
		sys, err = sim.NewSystem(cfg, mix)
		return err
	})
	if err != nil {
		return err
	}
	r.set("sim.new_system_us", newUS, "us", reps)

	if err := sys.RunTo(ctx, warm); err != nil {
		return err
	}
	d, err := timed("sim.System.RunTo", func() error { return sys.RunTo(ctx, warm+runTicks) })
	if err != nil {
		return err
	}
	r.set("sim.ns_per_tick", float64(d.Nanoseconds())/runTicks, "ns", runTicks)

	d, _ = timed("sim.System.Tick", func() error {
		for i := 0; i < busyN; i++ {
			sys.Tick()
		}
		return nil
	})
	r.set("sim.busy_tick_ns", float64(d.Nanoseconds())/busyN, "ns", busyN)

	if t.codecMix.Sources != nil {
		mix = t.codecMix
		if sys, err = sim.NewSystem(cfg, mix); err != nil {
			return err
		}
		if err := sys.RunTo(ctx, warm); err != nil {
			return err
		}
	}
	var full []byte
	snapUS, err := medianOf("sim.System.Snapshot", func() (err error) {
		full, err = sys.Snapshot()
		return err
	})
	if err != nil {
		return err
	}
	r.set("sim.snapshot_us", snapUS, "us", reps)
	r.set("sim.snapshot_kb", float64(len(full))/1024, "KB", 1)

	restoreUS, err := medianOf("sim.RestoreSystem", func() error {
		_, err := sim.RestoreSystem(cfg, mix, full)
		return err
	})
	if err != nil {
		return err
	}
	r.set("sim.restore_us", restoreUS, "us", reps)

	base := sys.Ticks()
	sys.ResetTouchedLines()
	if err := sys.RunTo(ctx, base+snapInterval); err != nil {
		return err
	}
	var delta []byte
	deltaUS, err := medianOf("sim.System.SnapshotDelta", func() (err error) {
		delta, err = sys.SnapshotDelta(base, 1)
		return err
	})
	if err != nil {
		return err
	}
	r.set("sim.delta_us", deltaUS, "us", reps)
	r.set("sim.delta_kb", float64(len(delta))/1024, "KB", 1)
	return nil
}

// keyLayer times Source.Key over every source of the workload's mixes:
// the content identity each cell key is derived from.
func keyLayer(r *run, mixes []workload.SourceMix) {
	const passes = 2000
	sp := r.spans.start("workload.Source.Key", -1)
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		for _, m := range mixes {
			for _, s := range m.Sources {
				keySink = s.Key()
			}
		}
	}
	d := time.Since(t0)
	r.spans.end(sp)
	r.set("workload.key_us", micros(d)/passes, "us", passes)
}

// keySink keeps the timed Key calls from being optimised away.
var keySink string
