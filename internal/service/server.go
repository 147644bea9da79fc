package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hira/internal/areamodel"
	"hira/internal/charz"
	"hira/internal/engine"
	"hira/internal/rowhammer"
	"hira/internal/sim"
	"hira/internal/telemetry"
	"hira/internal/workload"
)

// retainJobs bounds how many jobs (and the result payloads of the
// finished ones) stay queryable in memory. Each submission over the
// bound evicts finished jobs in the order they finished, oldest first,
// until the table is back at the bound or the next job finished within
// retainFor. Their cell results remain durable in the engine's store, so
// resubmitting is cheap. Queued and running jobs are never evicted, so
// the table may exceed the bound while they, or jobs inside the grace
// window, fill it.
const retainJobs = 256

// retainFor is a grace period during which a finished job is never
// evicted even over the retainJobs bound, so a client that lost its
// event stream and fell back to polling can still fetch the result. A
// burst of submissions inside the window grows the table past
// retainJobs (hira_jobs_retained on /metrics) until those jobs age out.
const retainFor = time.Minute

// Config sizes a Server.
type Config struct {
	// Engine configures the shared experiment engine every job runs on:
	// Parallelism bounds concurrent cell simulations across all jobs,
	// ResultDir is the content-addressed result store.
	Engine sim.EngineConfig
	// Workers bounds how many jobs execute concurrently; <= 0 means 2.
	// Cell-level parallelism inside each job is bounded separately by
	// Engine.Parallelism, which concurrent jobs share.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; <= 0 means 64. A
	// full queue rejects submissions with 503 rather than queueing
	// unboundedly.
	QueueDepth int
	// TraceDir is the directory job specs' trace references (the
	// workloads object's traces[].file entries) resolve against. Empty
	// rejects trace-referencing specs.
	TraceDir string
	// JournalPath, when non-empty, persists every live (queued or
	// running) job's spec to a crash-safe journal file. On startup the
	// journal's surviving entries are re-validated and re-enqueued under
	// their original IDs, so a crashed or killed server resumes its
	// interrupted jobs — against the warm result/checkpoint stores, which
	// makes re-running them cost roughly the in-flight delta. Empty
	// disables journaling (jobs die with the process, as before).
	JournalPath string
	// Telemetry is the metrics registry the server (and the engine it
	// builds) instruments itself on, served at GET /metrics. Nil makes
	// the server create its own, so /metrics always works; pass one in
	// to add process-level metrics or share a registry.
	Telemetry *telemetry.Registry
	// Logger, when non-nil, receives structured job lifecycle logs
	// (submit/start/finish/cancel), each tagged with the job ID. Nil
	// disables logging.
	Logger *slog.Logger
	// now overrides the clock in tests; nil means time.Now.
	now func() time.Time
}

// Server schedules experiment jobs on one shared engine and serves them
// over HTTP. Construct with New, mount Handler, and Close when done.
type Server struct {
	cfg      Config
	lab      *sim.Engine
	mux      *http.ServeMux
	registry *telemetry.Registry
	metrics  *svcMetrics

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	// journal is the durable live-job record (nil without a JournalPath
	// or when opening it failed — journalErr keeps the reason for
	// /readyz). retainJournal flips on at shutdown so jobs still live
	// when the process exits stay journaled for the next one.
	journal       *journal
	journalErr    error
	retainJournal atomic.Bool
	recovered     atomic.Uint64 // jobs re-enqueued from the journal
	panics        atomic.Uint64 // job executions that ended in a recovered panic
	droppedSpans  atomic.Uint64 // job-trace spans lost to the per-job cap, folded in as jobs finish

	mu      sync.Mutex
	cond    *sync.Cond // signals workers when pending grows or the server closes
	pending []*job     // jobs waiting for a worker, FIFO; cancels remove entries
	jobs    map[string]*job
	// order is submission order, for listing. Evicted IDs stay in it
	// until they are half of it; then it is compacted.
	order   []string
	evicted int // IDs in order that are no longer in jobs
	seq     int
	closed  bool

	// finished lists terminal jobs in the order they finished, the
	// eviction queue. jobFinished appends under the job's lock, so it
	// has its own leaf mutex: finMu is taken under s.mu or j.mu and
	// never takes another lock.
	finMu    sync.Mutex
	finished []finishedJob
}

// finishedJob is one entry of the eviction queue.
type finishedJob struct {
	id string
	at time.Time
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if cfg.Engine.Telemetry == nil {
		cfg.Engine.Telemetry = cfg.Telemetry
	}
	s := &Server{
		cfg:      cfg,
		lab:      sim.NewEngine(cfg.Engine),
		mux:      http.NewServeMux(),
		registry: cfg.Telemetry,
		jobs:     make(map[string]*job),
	}
	s.metrics = newSvcMetrics(cfg.Telemetry, s)
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	s.routes()
	if cfg.JournalPath != "" {
		jn, entries, err := openJournal(cfg.JournalPath, cfg.Engine.FS)
		if err != nil {
			// Journal-less degradation: the server still serves jobs, they
			// just will not survive a restart; /readyz reports why.
			s.journalErr = err
			s.logInfo("journal disabled", "error", err.Error())
		} else {
			s.journal = jn
			s.recoverJobs(entries)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Engine exposes the shared experiment engine (for stats inspection).
func (s *Server) Engine() *sim.Engine { return s.lab }

// Handler returns the HTTP handler serving the job API.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops accepting work, cancels running jobs, and waits for the
// workers to drain. Pending jobs finalize as cancelled. Jobs that were
// still live keep their journal entries, so a restart over the same
// journal re-enqueues them.
func (s *Server) Close() {
	s.retainJournal.Store(true)
	s.mu.Lock()
	s.closed = true
	pending := s.pending
	s.pending = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.stop() // interrupts running jobs' contexts
	s.wg.Wait()
	now := s.cfg.now()
	for _, j := range pending {
		j.requestCancel(now)
	}
}

// crash simulates an abrupt process death for crash-recovery tests:
// workers stop and running jobs' contexts are cancelled so the test can
// reclaim the goroutines, but no terminal state reaches the journal —
// leaving exactly the on-disk state a SIGKILL leaves behind. Only a new
// Server over the same directories can observe the difference.
func (s *Server) crash() {
	s.retainJournal.Store(true)
	s.mu.Lock()
	s.closed = true
	s.pending = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
}

// recoverJobs re-registers the journal's surviving entries at startup,
// before the worker pool starts. Each entry is re-validated against the
// current limits and its workloads re-resolved against the current
// TraceDir — a spec that no longer passes (limits tightened, trace file
// gone) finalizes as a failed job with an attributable error instead of
// crashing a worker later. Valid entries re-enqueue under their original
// IDs in their original order; their cells hit the warm result and
// checkpoint stores, so completing them costs roughly the work that was
// in flight when the previous process died.
func (s *Server) recoverJobs(entries []journalEntry) {
	maxSeq := 0
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.ID, "j%d", &n); err == nil && n > maxSeq {
			maxSeq = n
		}
		j := newJob(e.ID, e.Spec, e.Submitted)
		j.view.Recovered = true
		j.onFinish = s.jobFinished
		var mixes []workload.SourceMix
		err := e.Spec.Validate()
		if err == nil && e.Spec.Workloads != nil {
			mixes, err = e.Spec.Workloads.Resolve(s.cfg.TraceDir)
		}
		s.mu.Lock()
		s.jobs[e.ID] = j
		s.order = append(s.order, e.ID)
		s.mu.Unlock()
		if err != nil {
			j.finish(StateFailed, nil, nil, fmt.Sprintf("recovered from journal but no longer valid: %v", err), s.cfg.now())
			s.logInfo("job recovery rejected", "job", e.ID, "error", err.Error())
			continue
		}
		j.mixes = mixes
		s.mu.Lock()
		s.pending = append(s.pending, j)
		s.mu.Unlock()
		s.journal.add(e) // re-assert: the fresh journal starts empty
		s.recovered.Add(1)
		s.logInfo("job recovered", "job", e.ID, "kind", string(e.Spec.Kind))
	}
	s.mu.Lock()
	if maxSeq > s.seq {
		s.seq = maxSeq
	}
	s.mu.Unlock()
}

// worker pops pending jobs until the server closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := s.pending[0]
		s.pending = s.pending[1:]
		s.mu.Unlock()
		s.runJob(j)
	}
}

// runJob executes one job end to end: state transitions, per-job engine
// stats, progress wiring, and result marshaling.
func (s *Server) runJob(j *job) {
	spec := j.snapshot().Spec
	ctx, cancel := context.WithCancel(s.baseCtx)
	if spec.TimeoutSeconds > 0 {
		// The spec's wall-clock deadline is enforced here, server-side:
		// a runaway job is interrupted exactly like a cancelled one, but
		// finalizes as failed with an attributable deadline error.
		ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(spec.TimeoutSeconds*float64(time.Second)))
	}
	defer cancel()
	if !j.start(cancel, s.cfg.now()) {
		return // cancelled while queued
	}
	s.logInfo("job started", "job", j.snapshot().ID)

	// Every layer below (engine workers, checkpointer, stores) records
	// spans into whichever job's trace rides its context.
	result, stats, err := s.executeRecover(telemetry.WithTrace(ctx, j.trace), j)
	now := s.cfg.now()
	switch {
	case err == nil && errors.Is(ctx.Err(), context.Canceled):
		// An acknowledged cancel must win even when the computation ran
		// to completion anyway (kinds like "area" finish faster than
		// they poll the context). A deadline that fired after the work
		// completed does not: the job beat its deadline.
		j.finish(StateCancelled, nil, stats, "", now)
	case err == nil:
		j.finish(StateDone, result, stats, "", now)
	case errors.Is(err, context.DeadlineExceeded):
		j.finish(StateFailed, nil, stats,
			fmt.Sprintf("job exceeded its %gs wall-clock deadline", spec.TimeoutSeconds), now)
	case errors.Is(err, context.Canceled):
		j.finish(StateCancelled, nil, stats, "", now)
	default:
		j.finish(StateFailed, nil, stats, err.Error(), now)
	}
	if _, dropped := j.trace.SpanCount(); dropped > 0 {
		s.droppedSpans.Add(dropped)
	}
}

// executeRecover is execute behind a panic barrier: a panicking job —
// a bug in a cell, a poisoned spec — fails that job with the stack trace
// in its status (and a worker-panics tally on /metrics) instead of
// killing the process and every other job with it.
func (s *Server) executeRecover(ctx context.Context, j *job) (result json.RawMessage, stats *sim.EngineStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			err = fmt.Errorf("job panicked: %v\n%s", p, debug.Stack())
			s.logInfo("job panicked", "job", j.snapshot().ID, "panic", fmt.Sprint(p))
		}
	}()
	return s.execute(ctx, j)
}

// execute dispatches on the job's kind and returns the marshaled result.
func (s *Server) execute(ctx context.Context, j *job) (json.RawMessage, *sim.EngineStats, error) {
	spec := j.snapshot().Spec
	switch spec.Kind {
	case KindPolicies:
		policies, err := spec.policyList()
		if err != nil {
			return nil, nil, err
		}
		var stats sim.EngineStats
		opts := spec.Sim.options()
		opts.Mixes = j.mixes
		opts.Stats = &stats
		opts.Progress = s.progressStats(j)
		scores, err := s.lab.RunPolicies(ctx, spec.Config.config(), policies, opts)
		if err != nil {
			return nil, &stats, err
		}
		return marshal(PoliciesResult{Policies: scores, Stats: stats}, &stats)
	case KindCharacterize:
		mods := spec.Charz.modules()
		opts := spec.Charz.charzOptions()
		results := make([]charz.ModuleResult, 0, len(mods))
		for i, m := range mods {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			results = append(results, charz.CharacterizeModule(m, opts))
			j.setProgress(i+1, len(mods))
		}
		return marshal(results, nil)
	case KindSecurity:
		pts, err := rowhammer.DefaultConfig().Fig11()
		if err != nil {
			return nil, nil, err
		}
		return marshal(pts, nil)
	case KindArea:
		return marshal(areamodel.BuildReport(), nil)
	default: // a figure-table kind; the table rejects any other
		var stats sim.EngineStats
		opts := spec.Sim.options()
		opts.Mixes = j.mixes
		opts.Stats = &stats
		opts.Progress = s.progressStats(j)
		res, err := s.lab.RunFigure(ctx, opts, spec.figure())
		if err != nil {
			return nil, &stats, err
		}
		return marshal(res, &stats)
	}
}

// progressStats builds the progress callback for sweep jobs, whose
// cells resolve in one batch: each event carries the batch's resolution
// tally so far plus the engine-wide checkpoint-store summary, so
// streaming clients watch cache economics live.
func (s *Server) progressStats(j *job) func(done, total int, batch sim.EngineStats) {
	return func(done, total int, batch sim.EngineStats) {
		var snaps *engine.SnapStats
		if st, ok := s.lab.SnapshotStats(); ok {
			snaps = &st
		}
		j.setProgressStats(done, total, batch, snaps)
	}
}

func marshal(v any, stats *sim.EngineStats) (json.RawMessage, *sim.EngineStats, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, stats, fmt.Errorf("marshal result: %w", err)
	}
	return data, stats, nil
}

// --- HTTP layer ---

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/forensics", s.handleForensics)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// logInfo emits a structured log line when a logger is configured.
func (s *Server) logInfo(msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info(msg, args...)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// submitRetryAfterSeconds is the back-off hint sent with queue-full (and
// shutdown) 503s. Queue slots free at job-completion granularity —
// seconds, not milliseconds — so a couple of seconds spaces retries
// without making well-behaved clients wait noticeably longer than the
// queue actually needs.
const submitRetryAfterSeconds = 2

// writeUnavailable rejects a submission with 503 plus a Retry-After hint
// so well-behaved clients back off instead of hammering a full queue.
func writeUnavailable(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", submitRetryAfterSeconds))
	writeError(w, http.StatusServiceUnavailable, format, args...)
}

// handleSubmit validates a spec, registers the job, and enqueues it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	// Any valid spec fits in a few KB; cap the body so an oversized
	// request cannot balloon memory before validation runs.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.metrics.rejected.Inc()
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		s.metrics.rejected.Inc()
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	// Admission pre-check before any trace I/O: a submission the queue
	// would reject anyway must not pay file reads and hashing first.
	// The same conditions are re-checked under the lock below, because a
	// slot can fill while traces load.
	if err := s.admit(); err != nil {
		s.metrics.rejected.Inc()
		writeUnavailable(w, "%v", err)
		return
	}
	// Resolve custom workloads at submission time: trace files load (and
	// digest) once here, so a missing or corrupt trace is a 400 with a
	// clear message rather than a failed job, and execution is purely
	// deterministic over the resolved sources.
	var mixes []workload.SourceMix
	if spec.Workloads != nil {
		var err error
		if mixes, err = spec.Workloads.Resolve(s.cfg.TraceDir); err != nil {
			s.metrics.rejected.Inc()
			writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
			return
		}
	}

	s.mu.Lock()
	if err := s.admitLocked(); err != nil {
		s.mu.Unlock()
		s.metrics.rejected.Inc()
		writeUnavailable(w, "%v", err)
		return
	}
	s.seq++
	id := fmt.Sprintf("j%d", s.seq)
	j := newJob(id, spec, s.cfg.now())
	j.mixes = mixes
	j.onFinish = s.jobFinished
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.pending = append(s.pending, j)
	s.evictLocked()
	s.cond.Signal()
	s.mu.Unlock()
	if s.journal != nil {
		// Best-effort durability: a failed journal write degrades the
		// restart guarantee for this job, never the job itself. The
		// failure sticks in the journal's health (surfaced on /readyz).
		// The job may already have finished and removed its entry; the
		// journal then drops this add (see journal.ended).
		if err := s.journal.add(journalEntry{ID: id, Spec: spec, Submitted: j.snapshot().Created}); err != nil {
			s.logInfo("journal write failed", "job", id, "error", err.Error())
		}
	}
	s.metrics.submitted.Inc()
	s.logInfo("job submitted", "job", id, "kind", string(spec.Kind))
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// jobFinished observes one terminal job view: the eviction queue,
// outcome counters, queue and run latencies, the journal's terminal
// record, and the lifecycle log line. It runs under the job's lock.
func (s *Server) jobFinished(v Job) {
	s.finMu.Lock()
	s.finished = append(s.finished, finishedJob{id: v.ID, at: *v.Finished})
	s.finMu.Unlock()
	if s.journal != nil && !s.retainJournal.Load() {
		// Removal is the journal's terminal record. During shutdown (or a
		// simulated crash) entries are retained instead: a job cancelled
		// only because the process is exiting must be re-run by the next
		// one.
		if err := s.journal.remove(v.ID); err != nil {
			s.logInfo("journal write failed", "job", v.ID, "error", err.Error())
		}
	}
	s.metrics.observeFinish(v)
	args := []any{"job", v.ID, "state", string(v.State)}
	if v.Started != nil && v.Finished != nil {
		args = append(args, "run_seconds", v.Finished.Sub(*v.Started).Seconds())
	}
	if v.Error != "" {
		args = append(args, "error", v.Error)
	}
	s.logInfo("job finished", args...)
}

// admitLocked reports why a submission cannot be accepted right now
// (shutdown or a full queue); nil admits. Callers hold s.mu.
func (s *Server) admitLocked() error {
	if s.closed {
		return fmt.Errorf("server shutting down")
	}
	if len(s.pending) >= s.cfg.QueueDepth {
		return fmt.Errorf("job queue full (%d queued)", s.cfg.QueueDepth)
	}
	return nil
}

// admit is admitLocked taking the lock itself.
func (s *Server) admit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitLocked()
}

// evictLocked drops the earliest-finished jobs once more than
// retainJobs are tracked, so a long-lived server's job table (and the
// result payloads it pins) stays bounded. Jobs finished within
// retainFor are exempt, so a polling client always has a window to
// fetch its result. It pops the eviction queue's front and stops at the
// first job still inside the window, so a table full of recent jobs
// costs O(1). Callers hold s.mu.
func (s *Server) evictLocked() {
	excess := len(s.jobs) - retainJobs
	if excess <= 0 {
		return
	}
	cutoff := s.cfg.now().Add(-retainFor)
	s.finMu.Lock()
	n := 0
	for n < excess && n < len(s.finished) && s.finished[n].at.Before(cutoff) {
		delete(s.jobs, s.finished[n].id)
		s.finished[n] = finishedJob{}
		n++
	}
	s.finished = s.finished[n:]
	s.finMu.Unlock()
	s.evicted += n
	if s.evicted > 0 && 2*s.evicted >= len(s.order) {
		kept := s.order[:0]
		for _, id := range s.order {
			if _, ok := s.jobs[id]; ok {
				kept = append(kept, id)
			}
		}
		clear(s.order[len(kept):])
		s.order = kept
		s.evicted = 0
	}
}

// lookup resolves {id} or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	}
	return j
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
	}
}

// handleList returns job summaries (results elided) in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]Job, 0, len(s.jobs))
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue // evicted
		}
		v := j.snapshot()
		v.Result = nil
		out = append(out, v)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	// Drop the job from the pending list first, so a cancelled queued
	// job frees its queue slot immediately rather than riding along as
	// a tombstone until a worker pops it.
	s.mu.Lock()
	for i, pj := range s.pending {
		if pj == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	if !j.requestCancel(s.cfg.now()) {
		writeError(w, http.StatusConflict, "job %s already finished", j.snapshot().ID)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleStream serves a job's server-sent event stream: the current
// state immediately, progress events as cells resolve, and a final
// "state" event carrying the terminal job (result included). Every
// event carries an id; a reconnecting client that sends it back as
// Last-Event-ID skips the redundant initial snapshot when it is already
// current (events are cumulative snapshots, so nothing needs replaying).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	s.metrics.sseSubs.Inc()
	defer s.metrics.sseSubs.Dec()
	ch, snap, seq := j.subscribe()
	defer j.unsubscribe(ch)
	lastID, lastErr := strconv.ParseUint(r.Header.Get("Last-Event-ID"), 10, 64)
	current := lastErr == nil && lastID >= seq
	if !current || snap.State.Terminal() {
		// The terminal snapshot is always sent, even to a current client:
		// it is the event reconnecting clients are waiting for.
		writeEvent(w, Event{ID: seq, Name: "state", Data: snap})
		flusher.Flush()
	}
	if snap.State.Terminal() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.done:
			// Drain any buffered progress, then emit the terminal state.
			for {
				select {
				case ev := <-ch:
					if ev.Name != "state" {
						writeEvent(w, ev)
					}
				default:
					final, fseq := j.snapshotSeq()
					writeEvent(w, Event{ID: fseq, Name: "state", Data: final})
					flusher.Flush()
					return
				}
			}
		case ev := <-ch:
			writeEvent(w, ev)
			flusher.Flush()
			if ev.Name == "state" {
				if job, ok := ev.Data.(Job); ok && job.State.Terminal() {
					return
				}
			}
		}
	}
}

func writeEvent(w http.ResponseWriter, ev Event) {
	data, err := json.Marshal(ev.Data)
	if err != nil {
		data = []byte(`{}`)
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Name, data)
}

// StatsReport is GET /v1/stats: the shared engine's lifetime tallies.
type StatsReport struct {
	Engine      sim.EngineStats  `json:"engine"`
	StoredCells int              `json:"stored_cells"`
	Parallelism int              `json:"parallelism"`
	Jobs        map[JobState]int `json:"jobs"`
	// Snapshots reports the checkpoint store's hit/miss/evict tallies
	// when resumable simulation cells are enabled (Engine.SnapInterval).
	Snapshots *engine.SnapStats `json:"snapshots,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	rep := StatsReport{
		Engine:      s.lab.Stats(),
		StoredCells: s.lab.StoredCells(),
		Parallelism: s.lab.Parallelism(),
		Jobs:        map[JobState]int{},
	}
	if snaps, ok := s.lab.SnapshotStats(); ok {
		rep.Snapshots = &snaps
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		rep.Jobs[j.snapshot().State]++
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the load-balancer readiness probe: 200 while the
// server can do useful durable work, 503 (with the reasons) once it
// cannot — shutting down, queue saturated, a backing store degraded off
// its durable path, or the journal unwritable. Unlike /healthz, which
// only proves the process is up, not-ready is expected to be transient
// (queue drains) or to mean "route new work elsewhere" (degraded
// stores: jobs still succeed here, but without durability).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	s.mu.Lock()
	if s.closed {
		reasons = append(reasons, "server shutting down")
	}
	if len(s.pending) >= s.cfg.QueueDepth {
		reasons = append(reasons, fmt.Sprintf("job queue saturated (%d queued)", len(s.pending)))
	}
	s.mu.Unlock()
	if why, bad := s.lab.Degraded(); bad {
		reasons = append(reasons, why)
	}
	if s.journalErr != nil {
		reasons = append(reasons, s.journalErr.Error())
	} else if s.journal != nil {
		if why, ok := s.journal.healthy(); !ok {
			reasons = append(reasons, "journal: "+why)
		}
	}
	if len(reasons) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "unavailable", "reasons": reasons})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
