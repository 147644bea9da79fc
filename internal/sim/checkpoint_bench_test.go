package sim

import (
	"context"
	"testing"

	"hira/internal/workload"
)

// Bounds BenchmarkDeltaCheckpoint holds each checkpoint format to: at
// most checkpointLineBytes per LLC line it carries plus a fixed
// checkpointHeaderBytes for everything else (mark section, cores,
// controller, refresh engine). Lines encode to ~10 bytes (index gap,
// tag and LRU stamp varints, a flags byte); the rest of a 4-core
// system's state is ~5 KB.
const (
	checkpointLineBytes   = 16
	checkpointHeaderBytes = 8 << 10
)

// BenchmarkDeltaCheckpoint times one checkpoint encode in each format —
// a full snapshot versus a differential over a checkpoint interval's
// worth of LLC traffic — and reports the encoded sizes. Each format must
// cost bytes proportional to the LLC lines it carries, not to cache
// capacity: a full snapshot the lines the run has filled, a delta the
// lines the interval touched. That is what makes hira-server's
// fine-grained default interval and its in-memory checkpoint store
// affordable.
func BenchmarkDeltaCheckpoint(b *testing.B) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.ChipCapacityGbit = 8
	cfg.Seed = 1
	cfg.Policy = BaselinePolicy()
	mix := workload.Mixes(1, 4, 1)[0].Sources()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		b.Fatal(err)
	}
	// Warm past the cold-start transient, then accumulate one
	// hira-server default interval (10k ticks) of touched lines — the
	// epoch a production delta actually covers.
	if err := sys.RunTo(ctx, 20000); err != nil {
		b.Fatal(err)
	}
	sys.ResetTouchedLines()
	if err := sys.RunTo(ctx, 30000); err != nil {
		b.Fatal(err)
	}

	full, err := sys.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	delta, err := sys.SnapshotDelta(20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	occupied, touched := sys.llc.Occupied(), sys.llc.Touched()
	if max := checkpointLineBytes*occupied + checkpointHeaderBytes; len(full) > max {
		b.Fatalf("full snapshot %d bytes exceeds %d for %d occupied LLC lines", len(full), max, occupied)
	}
	if max := checkpointLineBytes*touched + checkpointHeaderBytes; len(delta) > max {
		b.Fatalf("delta checkpoint %d bytes exceeds %d for %d touched LLC lines", len(delta), max, touched)
	}

	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(full)), "bytes")
		b.ReportMetric(float64(occupied), "lines")
	})
	b.Run("delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.SnapshotDelta(20000, 1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(delta)), "bytes")
		b.ReportMetric(float64(touched), "lines")
		b.ReportMetric(float64(len(full))/float64(len(delta)), "full/delta")
	})
}
