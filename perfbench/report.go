package main

import "hira/internal/engine"

// reportEndToEnd sets the end-to-end metrics every workload reports
// from its untraced phase.
func reportEndToEnd(r *run, p *phase) {
	r.set("setup_s", median(p.setups), "s", len(p.setups))
	r.set("max_rss_mb", median(p.rss), "MB", len(p.rss))
	r.set("sweep_s", median(p.sweep), "s", len(p.sweep))
	r.set("cold_job_s", median(p.cold), "s", len(p.cold))
	r.set("extend_job_s", median(p.next), "s", len(p.next))
	r.set("job_p50_ms", median(p.warmP50), "ms", p.warmN)
	r.set("job_p99_ms", median(p.warmP99), "ms", p.warmN)
}

// reportTraced sets the traced run's profile shares, runtime activity
// and tracing overhead (traced minus untraced medians).
func reportTraced(r *run, plain, traced *phase, shares map[string]float64) {
	for _, l := range profileLayers {
		r.set(l+".self_pct", shares[l], "%", 1)
	}
	reps := float64(max(traced.reps, 1))
	r.set("runtime.alloc_mb", float64(traced.mem.allocBytes)/1e6/reps, "MB", traced.reps)
	r.set("runtime.gc_count", float64(traced.mem.gcs)/reps, "count", traced.reps)
	r.set("runtime.gc_pause_ms", millis(traced.mem.pause)/reps, "ms", traced.reps)
	r.set("trace.sweep_overhead_s", median(traced.sweep)-median(plain.sweep), "s", len(traced.sweep))
	r.set("trace.p50_overhead_ms", median(traced.warmP50)-median(plain.warmP50), "ms", traced.warmN)
}

// reportEngine sets the engine, planner and checkpoint-store metrics
// of the traced phase's last repetition (each repetition starts from a
// fresh engine, so every repetition reads the same counts).
func reportEngine(r *run, p *phase) {
	st, sn := p.engine, p.snaps
	r.set("engine.cells_submitted", float64(st.Submitted), "count", 1)
	r.set("engine.cells_simulated", float64(st.Simulated), "count", 1)
	r.set("engine.hit_ratio", ratio(st.CacheHits+st.StoreHits, st.Submitted), "ratio", 1)
	r.set("engine.cells_per_pass", ratio(st.PlannedCells, st.PlannedPasses), "ratio", 1)
	r.set("engine.simulated_mticks", float64(st.SimulatedTicks)/1e6, "Mticks", 1)
	r.set("engine.resumed_mticks", float64(st.ResumedTicks)/1e6, "Mticks", 1)
	for metricName, span := range engineSpans {
		var xs []float64
		for _, t := range p.spanTotals {
			xs = append(xs, millis(t[span]))
		}
		r.set(metricName, median(xs), "ms", len(xs))
	}
	reportSnapStore(r, sn)
}

// engineSpans maps each engine span-total metric to the span name the
// program records (store-read and store-write fold into "store").
var engineSpans = map[string]string{
	"engine.sem_wait_ms":          "sem-wait",
	"engine.simulate_ms":          "simulate",
	"engine.checkpoint_lookup_ms": "checkpoint-lookup",
	"engine.checkpoint_save_ms":   "checkpoint-save",
	"engine.store_ms":             "store",
}

func reportSnapStore(r *run, sn engine.SnapStats) {
	r.set("snapstore.hits", float64(sn.Hits), "count", 1)
	r.set("snapstore.misses", float64(sn.Misses), "count", 1)
	r.set("snapstore.saves", float64(sn.Saves), "count", 1)
	r.set("snapstore.delta_saves", float64(sn.DeltaSaves), "count", 1)
	r.set("snapstore.mb", float64(sn.Bytes)/1e6, "MB", 1)
	r.set("snapstore.evictions", float64(sn.Evictions), "count", 1)
}

// zeroService reports the service-layer metrics of a workload that
// does not run the service: nothing submitted, nothing scraped.
func zeroService(r *run) {
	for name, unit := range serviceMetrics {
		r.set(name, 0, unit, 0)
	}
}

// serviceMetrics are the service and telemetry layer metrics.
var serviceMetrics = map[string]string{
	"service.submit_ms":       "ms",
	"service.queue_wait_ms":   "ms",
	"service.run_ms":          "ms",
	"service.stream_lag_ms":   "ms",
	"service.result_kb":       "KB",
	"service.rejected":        "count",
	"telemetry.scrape_ms":     "ms",
	"telemetry.spans_per_job": "count",
	"telemetry.dropped_spans": "count",
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
