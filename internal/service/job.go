package service

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"hira/internal/engine"
	"hira/internal/sim"
	"hira/internal/telemetry"
	"hira/internal/workload"
)

// JobState is a job's position in its lifecycle.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Progress is a job's cell-resolution progress. A figure or policies
// job resolves all its cells in one engine batch, so Total is fixed for
// the whole job and Done never goes down. Beyond the done/total pair,
// figure and policies jobs carry a mid-batch resolution tally — how
// many of the resolved cells simulated versus hit a cache, and how many
// simulation ticks checkpoint resumes spared — plus a snapshot-store
// summary when checkpointing is enabled, so a streaming client can see
// cache economics while the sweep runs.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`

	Simulated    uint64 `json:"simulated,omitempty"`
	CacheHits    uint64 `json:"cache_hits,omitempty"`
	StoreHits    uint64 `json:"store_hits,omitempty"`
	Resumed      uint64 `json:"resumed,omitempty"`
	ResumedTicks uint64 `json:"resumed_ticks,omitempty"`
	// Snapshots is the engine-wide checkpoint-store tally at the time of
	// the event (nil when resumable cells are disabled).
	Snapshots *engine.SnapStats `json:"snapshots,omitempty"`
}

// Job is the serializable view of one submitted experiment.
type Job struct {
	ID       string     `json:"id"`
	Spec     JobSpec    `json:"spec"`
	State    JobState   `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Progress Progress   `json:"progress"`
	// Recovered marks a job re-enqueued from the journal after a server
	// restart rather than submitted over HTTP in this process's lifetime.
	Recovered bool `json:"recovered,omitempty"`
	// Error describes why a failed job failed.
	Error string `json:"error,omitempty"`
	// Stats tallies how the shared engine resolved this job's cells:
	// a warm resubmission reports Simulated == 0 with every cell a
	// cache or store hit.
	Stats *sim.EngineStats `json:"engine_stats,omitempty"`
	// Result is the job's kind-specific payload: a sim.FigureResult for
	// figure kinds, a PoliciesResult for "policies", module results for
	// "characterize", the Fig. 11 grid for "security", the Table 2
	// report for "area".
	Result json.RawMessage `json:"result,omitempty"`
}

// FigureResultPayload is the result payload of figure jobs — the exact
// encoding cmd/hira-sim's -json flag emits, so CLI and HTTP outputs are
// diffable.
type FigureResultPayload = sim.FigureResult

// PoliciesResult is the result payload of a "policies" job.
type PoliciesResult struct {
	Policies []sim.PolicyScore `json:"policies"`
	Stats    sim.EngineStats   `json:"engine_stats"`
}

// Event is one server-sent event on a job's stream.
type Event struct {
	// ID is the job's monotonically increasing event sequence number,
	// emitted as the SSE id field. A reconnecting client sends it back
	// as Last-Event-ID; because state and progress events are cumulative
	// snapshots (not deltas), the server needs no replay buffer — it
	// skips the redundant initial snapshot when the client is already
	// current and otherwise just resumes the live stream.
	ID uint64
	// Name is the SSE event name: "progress" or "state".
	Name string
	// Data is the event payload, marshaled to one JSON line.
	Data any
}

// job is the server-side state behind a Job view.
type job struct {
	// mixes is the resolved custom workload set (traces loaded, names
	// bound) when the spec carries a workloads object; nil runs builtin
	// mixes. Set once at submission, read by the executing worker, and
	// released (under mu) when the job finalizes so retained terminal
	// jobs do not pin decoded traces.
	mixes []workload.SourceMix

	// trace records the job's span timeline (queued/run plus every cell
	// phase the engine and checkpointer record under the job's context),
	// served by GET /v1/jobs/{id}/trace. Always non-nil; bounded by
	// telemetry.DefaultMaxSpans.
	trace *telemetry.Trace

	// onFinish, when set, observes the terminal view exactly once (set by
	// the server to fold outcome counters and latency histograms).
	onFinish func(v Job)

	mu     sync.Mutex
	view   Job
	cancel context.CancelFunc // non-nil once running; also set for queued cancellation
	// cancelled marks a cancel request that arrived while queued, so
	// the scheduler discards the job instead of running it.
	cancelled bool
	// done closes when the job reaches a terminal state.
	done chan struct{}
	subs map[chan Event]struct{}
	// eventSeq numbers this job's SSE events; see Event.ID.
	eventSeq uint64
}

func newJob(id string, spec JobSpec, now time.Time) *job {
	return &job{
		view:  Job{ID: id, Spec: spec, State: StateQueued, Created: now},
		trace: telemetry.NewTrace(id, 0),
		done:  make(chan struct{}),
		subs:  make(map[chan Event]struct{}),
	}
}

// snapshot returns a copy of the job's serializable view.
func (j *job) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.view
}

// snapshotSeq is snapshot plus the view's event sequence number, for
// stamping synthesized state events consistently with broadcast ones.
func (j *job) snapshotSeq() (Job, uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.view, j.eventSeq
}

// subscribe registers a stream consumer and returns its channel plus the
// current snapshot (sent to the consumer first, so late subscribers see
// state immediately) and the snapshot's event sequence number. Slow
// consumers miss intermediate progress events (sends are non-blocking)
// but always receive the terminal state via done + snapshot.
func (j *job) subscribe() (chan Event, Job, uint64) {
	ch := make(chan Event, 16)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	snap := j.view
	seq := j.eventSeq
	j.mu.Unlock()
	return ch, snap, seq
}

func (j *job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// broadcast numbers an event and sends it to every subscriber without
// blocking. Callers hold j.mu.
func (j *job) broadcast(ev Event) {
	j.eventSeq++
	ev.ID = j.eventSeq
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// setProgress records progress and notifies subscribers.
func (j *job) setProgress(done, total int) {
	j.setProgressStats(done, total, sim.EngineStats{}, nil)
}

// setProgressStats is setProgress carrying the batch's mid-sweep
// resolution tally and the checkpoint store's current summary; it backs
// the sweep's Progress callback for figure and policies jobs.
func (j *job) setProgressStats(done, total int, batch sim.EngineStats, snaps *engine.SnapStats) {
	j.mu.Lock()
	j.view.Progress = Progress{
		Done: done, Total: total,
		Simulated:    batch.Simulated,
		CacheHits:    batch.CacheHits,
		StoreHits:    batch.StoreHits,
		Resumed:      batch.Resumed,
		ResumedTicks: batch.ResumedTicks,
		Snapshots:    snaps,
	}
	j.broadcast(Event{Name: "progress", Data: j.view.Progress})
	j.mu.Unlock()
}

// start transitions queued -> running and installs the cancel func. It
// returns false — and the caller must skip the job — when a cancel
// request already finalized it.
func (j *job) start(cancel context.CancelFunc, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelled || j.view.State.Terminal() {
		return false
	}
	j.view.State = StateRunning
	t := now
	j.view.Started = &t
	j.cancel = cancel
	// The queue interval is only known retroactively, once a worker
	// picks the job up.
	j.trace.AddSpan("queued", "", j.view.Created, now, nil)
	return true
}

// finish records the terminal state, result, and stats, then wakes every
// waiter and subscriber.
func (j *job) finish(state JobState, result json.RawMessage, stats *sim.EngineStats, errMsg string, now time.Time) {
	j.mu.Lock()
	// The resolved workloads (decoded trace accesses can be large) are
	// only needed while executing; release them so retained terminal
	// jobs pin just their result payloads.
	j.mixes = nil
	if j.cancelled {
		// An acknowledged cancel (DELETE returned 200) always ends
		// cancelled, even if the computation outran the cancellation.
		state, result, errMsg = StateCancelled, nil, ""
	}
	j.view.State = state
	t := now
	j.view.Finished = &t
	j.view.Result = result
	j.view.Stats = stats
	j.view.Error = errMsg
	if j.view.Started != nil {
		j.trace.AddSpan("run", "", *j.view.Started, now,
			map[string]any{"state": string(j.view.State)})
	}
	if j.onFinish != nil {
		j.onFinish(j.view)
	}
	j.broadcast(Event{Name: "state", Data: j.view})
	j.mu.Unlock()
	close(j.done)
}

// requestCancel cancels a running job's context, or finalizes a job
// still sitting in the queue (the scheduler skips it when popped).
// Returns false if the job already finished.
func (j *job) requestCancel(now time.Time) bool {
	j.mu.Lock()
	if j.view.State.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.cancelled = true
	if j.cancel != nil {
		// Running: the job's context interrupts its in-flight cells and
		// the worker finalizes it as cancelled.
		j.cancel()
		j.mu.Unlock()
		return true
	}
	// Still queued: finalize immediately.
	j.mixes = nil
	j.view.State = StateCancelled
	t := now
	j.view.Finished = &t
	j.trace.AddSpan("queued", "", j.view.Created, now, nil)
	if j.onFinish != nil {
		j.onFinish(j.view)
	}
	j.broadcast(Event{Name: "state", Data: j.view})
	j.mu.Unlock()
	close(j.done)
	return true
}
