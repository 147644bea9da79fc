package service

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hira/internal/fault"
	"hira/internal/sim"
	"hira/internal/workload"
)

// crashSpec is a sweep long enough to crash mid-run: checkpoints start
// landing within the first ~1% of the measure window, leaving a wide
// window between "a checkpoint exists" and "the cell finished".
func crashSpec() JobSpec {
	return JobSpec{
		Kind:       KindFig9,
		Capacities: []int{8},
		Sim:        &SimSpec{Workloads: 1, Cores: 4, Warmup: 2000, Measure: 1000000, Seed: 1},
	}
}

func crashOpts() sim.Options {
	return sim.Options{Workloads: 1, Cores: 4, Warmup: 2000, Measure: 1000000, Seed: 1}
}

// blockingSpec pins a worker for the queue and deadline tests (its job
// is cancelled or deadline-killed, never run to completion): Fig. 9 over
// all seven capacities, each cell at the service's 10M-tick bound, run
// one cell at a time on an engine with Parallelism 1.
func blockingSpec() JobSpec {
	return JobSpec{
		Kind: KindFig9,
		Sim:  &SimSpec{Workloads: 1, Cores: 4, Warmup: 2000, Measure: maxTicks - 2000, Seed: 1},
	}
}

// metricsText fetches the /metrics exposition from the server under test.
func metricsText(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// getStatus fetches a path and returns the status code plus body.
func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestCrashRecoveryEndToEnd is the tentpole acceptance test: a server is
// killed mid-job (journal retained, stores warm), a new server over the
// same directories re-enqueues the interrupted job from the journal, the
// job resumes from checkpoints instead of starting over, and its result
// is bit-identical to an uninterrupted run.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	ctx := context.Background()

	// Fault-free ground truth, computed fully in-process.
	want := inProcessFig9(t, crashOpts()).Fig9

	dir := t.TempDir()
	cfg := func() Config {
		return Config{
			Engine: sim.EngineConfig{
				Parallelism:  2,
				ResultDir:    filepath.Join(dir, "results"),
				SnapInterval: 10000,
			},
			Workers:     1,
			JournalPath: filepath.Join(dir, "journal.jsonl"),
		}
	}

	svc, client := newTestServer(t, cfg())
	job, err := client.Submit(ctx, crashSpec())
	if err != nil {
		t.Fatal(err)
	}

	// Crash once sim cells have checkpointed mid-run. Only the sweep's 6
	// sim cells checkpoint — at the warmup boundary (tick 2000) and every
	// 10000 ticks after; its alone-reference cells never do. Saves >= 2
	// therefore means at least two sim-cell checkpoints exist, and the
	// cells that wrote them are ~1% into their 1M-tick measure window —
	// the restarted run must resume them, not replay.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, ok := svc.Engine().SnapshotStats(); ok && st.Saves >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint saved before the deadline — cannot crash mid-job")
		}
		time.Sleep(500 * time.Microsecond)
	}
	svc.crash()

	// The journal survived the crash with the live job still recorded.
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatalf("journal did not survive the crash: %v", err)
	}
	if !strings.Contains(string(data), job.ID) {
		t.Fatalf("journal lost the live job %s: %q", job.ID, data)
	}

	// A new server over the same directories re-enqueues and finishes it.
	_, client2 := newTestServer(t, cfg())
	got, err := client2.Wait(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("recovered job state = %s (error %q), want done", got.State, got.Error)
	}
	if !got.Recovered {
		t.Error("recovered job not marked Recovered in its API view")
	}
	if got.Stats == nil || got.Stats.ResumedTicks == 0 {
		t.Errorf("recovered job resumed no checkpointed ticks (stats %+v) — it replayed instead of resuming", got.Stats)
	}
	res, err := got.FigureResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Fig9, want) {
		t.Fatalf("crash-recovered rows differ from the uninterrupted run:\nrecovered: %+v\nreference: %+v", res.Fig9, want)
	}

	// The recovery is visible on /metrics, and the finished job's journal
	// entry is gone — a second restart recovers nothing.
	if m := metricsText(t, client2.BaseURL); !strings.Contains(m, "hira_jobs_recovered_total 1") {
		t.Error("/metrics does not report hira_jobs_recovered_total 1")
	}
	data, err = os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), job.ID) {
		t.Errorf("finished job still journaled: %q", data)
	}
}

// TestJournalRoundTrip pins the journal's format contract: entries
// survive reopen in order, removal is terminal, and damaged lines are
// skipped without poisoning the rest.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, entries, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh journal recovered %d entries", len(entries))
	}
	now := time.Now().UTC().Truncate(time.Second)
	if err := j.add(journalEntry{ID: "j1", Spec: testSpec(), Submitted: now}); err != nil {
		t.Fatal(err)
	}
	if err := j.add(journalEntry{ID: "j2", Spec: testSpec(), Submitted: now}); err != nil {
		t.Fatal(err)
	}
	if err := j.remove("j1"); err != nil {
		t.Fatal(err)
	}
	if err := j.remove("never-added"); err != nil {
		t.Fatal(err)
	}
	// Snapshot the on-disk bytes now: reopening proves writability with a
	// rewrite of its (empty) live set, wiping the file.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	_, entries, err = openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ID != "j2" {
		t.Fatalf("reopened journal = %+v, want exactly j2", entries)
	}
	if entries[0].Spec.Kind != testSpec().Kind || !entries[0].Submitted.Equal(now) {
		t.Errorf("entry round-trip mangled: %+v", entries[0])
	}

	// Damage: a garbage line, a duplicate, and an empty line around a
	// valid entry must not stop recovery.
	damaged := "{torn garba\n\n" + string(raw) + string(raw)
	if err := os.WriteFile(path, []byte(damaged), 0o644); err != nil {
		t.Fatal(err)
	}
	_, entries, err = openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ID != "j2" {
		t.Fatalf("recovery over damaged journal = %+v, want exactly j2", entries)
	}
}

// TestJournalDropsAddAfterRemove pins the submit path's ordering race:
// a submission journals its job only after enqueueing it, so a fast job
// can finish — and remove its absent entry — before the add lands. The
// late add must be dropped, or a restart would re-run the finished job
// as recovered.
func TestJournalDropsAddAfterRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	// j1 finishes before its submission's add; j2 is journaled first.
	if err := j.remove("j1"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"j1", "j2"} {
		if err := j.add(journalEntry{ID: id, Spec: testSpec()}); err != nil {
			t.Fatal(err)
		}
	}
	if _, entries, err := openJournal(path, nil); err != nil {
		t.Fatal(err)
	} else if len(entries) != 1 || entries[0].ID != "j2" {
		t.Fatalf("journal after a late add = %+v, want exactly the live j2", entries)
	}
}

// TestFinishedJobsLeaveJournalEmpty drives the same race end to end:
// warm jobs finish in about the time their submission takes to journal
// them, and once every one is done the journal must hold no entry.
func TestFinishedJobsLeaveJournalEmpty(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	_, client := newTestServer(t, Config{
		Engine:      sim.EngineConfig{Parallelism: 2},
		Workers:     2,
		JournalPath: path,
	})
	if _, err := client.Run(ctx, testSpec(), nil); err != nil { // warm the cells
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 50; i++ {
		job, err := client.Submit(ctx, testSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids {
		job, err := client.Wait(ctx, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if job.State != StateDone {
			t.Fatalf("job %s = %s (%s), want done", id, job.State, job.Error)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("journal still holds finished jobs:\n%s", data)
	}
}

// TestJournalRetiredSpecField covers the upgrade path for a spec field
// the server no longer has ("no_planner", which selected a per-cell
// executor): a new submission carrying it is rejected with 400, because
// the submit decoder disallows unknown fields, while a journal line an
// older server wrote with it still replays to done, because recovery
// decodes journal entries leniently.
func TestJournalRetiredSpecField(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const retiredSim = `{"workloads":1,"cores":4,"warmup":2000,"measure":6000,"seed":1,"no_planner":true}`
	line := `{"id":"j3","spec":{"kind":"fig9","capacities":[8],"sim":` + retiredSim + `},"submitted":"2026-01-01T00:00:00Z"}` + "\n"
	journalPath := filepath.Join(dir, "journal.jsonl")
	if err := os.WriteFile(journalPath, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	_, client := newTestServer(t, Config{
		Engine:      sim.EngineConfig{Parallelism: 2},
		Workers:     1,
		JournalPath: journalPath,
	})

	resp, err := http.Post(client.BaseURL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"fig9","capacities":[8],"sim":`+retiredSim+`}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "no_planner") {
		t.Fatalf("submit with the retired field = %d %q, want 400 naming it", resp.StatusCode, body)
	}

	got, err := client.Wait(ctx, "j3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || !got.Recovered {
		t.Fatalf("journaled job = %s (recovered %v, error %q), want a recovered done job", got.State, got.Recovered, got.Error)
	}
	want := inProcessFig9(t, testOpts()).Fig9
	res, err := got.FigureResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Fig9, want) {
		t.Fatalf("replayed rows differ from an in-process run:\nreplayed:  %+v\nreference: %+v", res.Fig9, want)
	}
}

// TestJournalWriteFaultsDegradeNotFail asserts a journal that stops
// being writable mid-flight degrades: adds report the failure, the
// health check carries the reason, and a later successful write clears
// it.
func TestJournalWriteFaultsDegradeNotFail(t *testing.T) {
	in, err := fault.NewInjector(1, fault.Rule{Site: fault.SiteJournalWrite, Kind: fault.ENOSPC, After: 1, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := openJournal(path, in) // rewrite #1: the writability probe
	if err != nil {
		t.Fatal(err)
	}
	if err := j.add(journalEntry{ID: "j1", Spec: testSpec()}); err == nil { // rewrite #2: injected ENOSPC
		t.Fatal("injected journal write failure not reported")
	}
	if why, ok := j.healthy(); ok || why == "" {
		t.Fatalf("healthy() = (%q, %v) after a failed write", why, ok)
	}
	if err := j.add(journalEntry{ID: "j2", Spec: testSpec()}); err != nil { // rewrite #3: healthy again
		t.Fatal(err)
	}
	if _, ok := j.healthy(); !ok {
		t.Error("health did not recover after a successful write")
	}
	// The failed add's entry was retained in memory and reached disk with
	// the next successful rewrite.
	_, entries, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("journal after transient fault holds %d entries, want both", len(entries))
	}
}

// TestJournalUnwritableRunsJournalless asserts the documented
// degradation: a server whose journal cannot be opened still serves
// jobs, and /readyz says why it should not get new durable work.
func TestJournalUnwritableRunsJournalless(t *testing.T) {
	parent := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(parent, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, client := newTestServer(t, Config{
		Workers:     1,
		JournalPath: filepath.Join(parent, "journal.jsonl"),
	})
	code, body := getStatus(t, client.BaseURL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "journal") {
		t.Errorf("readyz = %d %q, want 503 naming the journal", code, body)
	}
	// Jobs still run to completion.
	job, err := client.Run(context.Background(), JobSpec{Kind: KindArea}, nil)
	if err != nil || job.State != StateDone {
		t.Fatalf("journal-less server failed a job: %+v, err %v", job, err)
	}
}

// TestReadyzTransitions walks /readyz through its lifecycle: ready while
// idle, not-ready while the queue is saturated, ready again once it
// drains, and not-ready for good once the server shuts down. /healthz
// stays 200 throughout — the process is alive the whole time.
func TestReadyzTransitions(t *testing.T) {
	ctx := context.Background()
	svc, client := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Engine:     sim.EngineConfig{Parallelism: 1},
	})
	if code, body := getStatus(t, client.BaseURL+"/readyz"); code != http.StatusOK {
		t.Fatalf("idle readyz = %d %q, want 200", code, body)
	}

	// Occupy the lone worker with a job far too long to finish during the
	// test (it is cancelled at the end), then fill the queue.
	long := blockingSpec()
	j1, err := client.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := client.Job(ctx, j1.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	j2, err := client.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}

	if code, body := getStatus(t, client.BaseURL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "saturated") {
		t.Errorf("saturated readyz = %d %q, want 503 naming the queue", code, body)
	}
	if code, _ := getStatus(t, client.BaseURL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz not 200 while saturated")
	}

	// Cancelling the queued job frees the slot immediately.
	if err := client.Cancel(ctx, j2.ID); err != nil {
		t.Fatal(err)
	}
	if code, body := getStatus(t, client.BaseURL+"/readyz"); code != http.StatusOK {
		t.Errorf("drained readyz = %d %q, want 200", code, body)
	}

	if err := client.Cancel(ctx, j1.ID); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if code, body := getStatus(t, client.BaseURL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "shutting down") {
		t.Errorf("closed readyz = %d %q, want 503 shutting down", code, body)
	}
	if code, _ := getStatus(t, client.BaseURL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz not 200 while shutting down")
	}
}

// TestQueueFullRetryAfterAndClientBackoff asserts the 503 contract end
// to end: the raw response carries Retry-After, and a retrying client
// waits out a transient full queue instead of surfacing the error.
func TestQueueFullRetryAfterAndClientBackoff(t *testing.T) {
	ctx := context.Background()
	_, client := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Engine:     sim.EngineConfig{Parallelism: 1},
	})
	long := blockingSpec()
	j1, err := client.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := client.Job(ctx, j1.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	j2, err := client.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}

	// Raw POST against the full queue: 503 with the back-off hint.
	resp, err := http.Post(client.BaseURL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"area"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue-full POST = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}

	// A retrying client submitted against the full queue succeeds once
	// the slot frees. (It waits out the server's 2s Retry-After, which
	// wins over the shorter backoff; the cancel below frees the slot
	// almost immediately.)
	retrying := NewClient(client.BaseURL)
	retrying.MaxRetries = 8
	go func() {
		time.Sleep(50 * time.Millisecond)
		client.Cancel(ctx, j2.ID)
	}()
	j3, err := retrying.Submit(ctx, JobSpec{Kind: KindArea})
	if err != nil {
		t.Fatalf("retrying client did not ride out the transient 503: %v", err)
	}
	client.Cancel(ctx, j1.ID)
	client.Cancel(ctx, j3.ID)
}

// TestJobDeadline asserts the server-side wall-clock deadline: a job
// that overruns its spec's timeout_seconds fails with an attributable
// deadline error, while a job that finishes in time is untouched by a
// generous deadline.
func TestJobDeadline(t *testing.T) {
	ctx := context.Background()
	_, client := newTestServer(t, Config{Workers: 1, Engine: sim.EngineConfig{Parallelism: 1}})

	over := blockingSpec() // far longer than the deadline allows
	over.TimeoutSeconds = 0.2
	job, err := client.Run(ctx, over, nil)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateFailed {
		t.Fatalf("overrunning job state = %s, want failed", job.State)
	}
	if !strings.Contains(job.Error, "wall-clock deadline") || !strings.Contains(job.Error, "0.2s") {
		t.Errorf("deadline error not attributable: %q", job.Error)
	}

	quick := JobSpec{Kind: KindArea, TimeoutSeconds: 60}
	job, err = client.Run(ctx, quick, nil)
	if err != nil || job.State != StateDone {
		t.Fatalf("in-deadline job = %+v, err %v", job, err)
	}
}

// TestJobPanicFailsJobNotProcess injects a poisoned workload set
// directly into a job (no valid spec can produce one) and asserts the
// panic barrier contract: the job fails with the panic value and a
// stack trace in its API-visible error, the panic is tallied on
// /metrics, and the server keeps serving other jobs.
func TestJobPanicFailsJobNotProcess(t *testing.T) {
	ctx := context.Background()
	svc, client := newTestServer(t, Config{Workers: 1, Engine: sim.EngineConfig{Parallelism: 1}})

	j := newJob("poison", testSpec(), time.Now())
	// Four nil Sources: the right arity to pass validation, guaranteed to
	// panic when the simulation dereferences them.
	j.mixes = []workload.SourceMix{{ID: 1, Sources: make([]workload.Source, 4)}}
	j.onFinish = svc.jobFinished
	svc.mu.Lock()
	svc.jobs["poison"] = j
	svc.order = append(svc.order, "poison")
	svc.pending = append(svc.pending, j)
	svc.cond.Signal()
	svc.mu.Unlock()

	got, err := client.Wait(ctx, "poison", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed {
		t.Fatalf("panicking job state = %s, want failed", got.State)
	}
	if !strings.Contains(got.Error, "panic") {
		t.Errorf("error does not name the panic: %q", got.Error)
	}
	if !strings.Contains(got.Error, "goroutine") && !strings.Contains(got.Error, ".go:") {
		t.Errorf("error carries no stack trace: %q", got.Error)
	}
	if m := metricsText(t, client.BaseURL); !strings.Contains(m, "hira_worker_panics_total 1") {
		t.Error("/metrics does not report hira_worker_panics_total 1")
	}

	// The process survived: a normal job still runs to completion.
	job, err := client.Run(ctx, JobSpec{Kind: KindArea}, nil)
	if err != nil || job.State != StateDone {
		t.Fatalf("server unusable after a job panic: %+v, err %v", job, err)
	}
}

// TestFaultMetricsAndDegradedGauge runs a job on a server whose result
// store always fails writes, and asserts the operator's view: jobs
// succeed, injected faults are counted per site, and the degraded gauge
// flips to 1.
func TestFaultMetricsAndDegradedGauge(t *testing.T) {
	ctx := context.Background()
	in, err := fault.NewInjector(1, fault.Rule{Site: fault.SiteStoreWrite, Kind: fault.ENOSPC})
	if err != nil {
		t.Fatal(err)
	}
	_, client := newTestServer(t, Config{
		Workers: 1,
		Engine: sim.EngineConfig{
			Parallelism: 2,
			ResultDir:   filepath.Join(t.TempDir(), "results"),
			FS:          in,
		},
	})
	job, err := client.Run(ctx, testSpec(), nil)
	if err != nil || job.State != StateDone {
		t.Fatalf("job under write faults = %+v, err %v", job, err)
	}
	m := metricsText(t, client.BaseURL)
	if !strings.Contains(m, `hira_faults_injected_total{site="store.write"}`) {
		t.Errorf("/metrics lacks the per-site fault counter:\n%s", m)
	}
	for _, line := range strings.Split(m, "\n") {
		if strings.HasPrefix(line, `hira_faults_injected_total{site="store.write"}`) {
			if strings.HasSuffix(line, " 0") {
				t.Errorf("fault counter did not count: %q", line)
			}
		}
	}
	if !strings.Contains(m, "hira_store_degraded 1") {
		t.Error("/metrics does not report hira_store_degraded 1")
	}
	// And /readyz routes new durable work elsewhere.
	code, body := getStatus(t, client.BaseURL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "store") {
		t.Errorf("readyz = %d %q, want 503 naming the degraded store", code, body)
	}
}

// TestStreamTerminalSnapshotAlwaysSent pins the reconnect contract: a
// client reconnecting to a finished job with a current Last-Event-ID
// still receives the terminal state event — it is the event reconnects
// wait for.
func TestStreamTerminalSnapshotAlwaysSent(t *testing.T) {
	ctx := context.Background()
	_, client := newTestServer(t, Config{Workers: 1})
	job, err := client.Run(ctx, JobSpec{Kind: KindArea}, nil)
	if err != nil || job.State != StateDone {
		t.Fatalf("job = %+v, err %v", job, err)
	}

	req, err := http.NewRequest(http.MethodGet, client.BaseURL+"/v1/jobs/"+job.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "999999") // far past anything real
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "event: state") || !strings.Contains(string(body), `"done"`) {
		t.Errorf("terminal reconnect stream = %q, want the terminal state event", body)
	}
}
