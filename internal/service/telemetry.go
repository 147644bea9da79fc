package service

import (
	"net/http"
	"runtime"
	"runtime/debug"

	"hira/internal/fault"
	"hira/internal/telemetry"
)

// svcMetrics is the job-scheduling layer's instrumentation: submission
// and completion counters, queue/run latencies, and live stream-consumer
// counts. Engine- and snapshot-store-level metrics are registered by
// sim.NewEngine; these cover what only the service knows — job
// lifecycles and subscribers.
type svcMetrics struct {
	submitted *telemetry.Counter
	rejected  *telemetry.Counter
	finished  map[JobState]*telemetry.Counter
	sseSubs   *telemetry.Gauge
	// queueSeconds and runSeconds split each job's latency into its two
	// states: time waiting for a worker, then time executing.
	queueSeconds *telemetry.Histogram
	runSeconds   *telemetry.Histogram
}

// newSvcMetrics registers the service's instruments on r and, given the
// server, the sampled queue-depth and job-table gauges.
func newSvcMetrics(r *telemetry.Registry, s *Server) *svcMetrics {
	if r == nil {
		return nil
	}
	m := &svcMetrics{
		submitted: r.Counter("hira_jobs_submitted_total", "Jobs accepted into the queue."),
		rejected: r.Counter("hira_jobs_rejected_total",
			"Submissions refused (invalid spec, full queue, or shutdown)."),
		finished: make(map[JobState]*telemetry.Counter),
		sseSubs:  r.Gauge("hira_sse_subscribers", "Live job event-stream consumers."),
		queueSeconds: r.Histogram("hira_job_queue_seconds",
			"Time jobs spent queued before a worker picked them up.", nil),
		runSeconds: r.Histogram("hira_job_run_seconds",
			"Time jobs spent executing.", nil),
	}
	for _, st := range []JobState{StateDone, StateFailed, StateCancelled} {
		m.finished[st] = r.Counter("hira_jobs_finished_total",
			"Jobs reaching a terminal state, by outcome.",
			telemetry.Label{Key: "state", Value: string(st)})
	}
	r.GaugeFunc("hira_job_queue_depth", "Jobs currently waiting for a worker.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.pending))
		})
	r.GaugeFunc("hira_jobs_retained",
		"Jobs in the server's job table: queued, running, and finished but not yet evicted.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.jobs))
		})
	r.CounterFunc("hira_trace_dropped_spans_total",
		"Job-trace spans dropped at the per-job span cap, folded in as jobs finish.",
		func() float64 { return float64(s.droppedSpans.Load()) })
	r.GaugeFunc("hira_build_info",
		"Build metadata of the serving binary; the value is always 1.",
		func() float64 { return 1 },
		telemetry.Label{Key: "version", Value: buildVersion()},
		telemetry.Label{Key: "go", Value: runtime.Version()})
	r.CounterFunc("hira_jobs_recovered_total",
		"Jobs re-enqueued from the journal after a server restart.",
		func() float64 { return float64(s.recovered.Load()) })
	r.CounterFunc("hira_worker_panics_total",
		"Panics recovered inside cell or job execution; each failed one job, never the process.",
		func() float64 { return float64(s.panics.Load() + s.lab.Stats().Panics) })
	r.GaugeFunc("hira_store_degraded",
		"1 when a backing store fell off its durable path (result store cache-only, or checkpoint store in-memory).",
		func() float64 {
			if _, bad := s.lab.Degraded(); bad {
				return 1
			}
			return 0
		})
	// Fault-injection counters are registered per site unconditionally —
	// the family catalogue must not depend on whether this process runs
	// under chaos — and sample zero outside fault-injection runs
	// (Injector.Fired is nil-safe).
	var injector *fault.Injector
	if in, ok := s.cfg.Engine.FS.(*fault.Injector); ok {
		injector = in
	}
	for _, site := range fault.Sites() {
		site := site
		r.CounterFunc("hira_faults_injected_total",
			"Faults injected by the chaos harness, by site; always 0 outside fault-injection runs.",
			func() float64 { return float64(injector.Fired(site)) },
			telemetry.Label{Key: "site", Value: string(site)})
	}
	return m
}

// buildVersion reports the main module's version from the build info
// ("devel" for plain source builds, a tag or pseudo-version for module
// builds), labeling hira_build_info.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// observeFinish folds one terminal job view into the tallies. Nil-safe:
// a server without telemetry observes nothing.
func (m *svcMetrics) observeFinish(v Job) {
	if m == nil {
		return
	}
	m.finished[v.State].Inc()
	if v.Finished == nil {
		return
	}
	queueEnd := *v.Finished // cancelled while queued: whole life was queue time
	if v.Started != nil {
		queueEnd = *v.Started
		m.runSeconds.Observe(v.Finished.Sub(*v.Started).Seconds())
	}
	m.queueSeconds.Observe(queueEnd.Sub(v.Created).Seconds())
}

// handleMetrics serves the Prometheus exposition of the server's
// registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.registry.Handler().ServeHTTP(w, r)
}

// handleTrace serves a job's span timeline: JSON by default, Chrome
// trace-event format (loadable at chrome://tracing or ui.perfetto.dev)
// with ?format=chrome.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "chrome" {
		j.trace.WriteChrome(w)
		return
	}
	j.trace.WriteJSON(w)
}
