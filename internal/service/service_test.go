package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hira/internal/sim"
	"hira/internal/workload"
)

// testSpec is the laptop-scale Fig. 9-shaped job every e2e test submits.
func testSpec() JobSpec {
	return JobSpec{
		Kind:       KindFig9,
		Capacities: []int{8},
		Sim:        &SimSpec{Workloads: 1, Cores: 4, Warmup: 2000, Measure: 6000, Seed: 1},
	}
}

// testOpts is testSpec's sim.Options twin for in-process reference runs.
func testOpts() sim.Options {
	return sim.Options{Workloads: 1, Cores: 4, Warmup: 2000, Measure: 6000, Seed: 1}
}

// inProcessFig9 runs the 8 Gb point of Fig. 9 in process on a one-sweep
// engine: the reference a job's rows are compared against.
func inProcessFig9(t testing.TB, opts sim.Options) *sim.FigureResult {
	t.Helper()
	res, err := sim.RunFigure(context.Background(), opts, sim.FigureSpec{Kind: "fig9", Capacities: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// newTestServer spins a service with its HTTP front end.
func newTestServer(t testing.TB, cfg Config) (*Server, *Client) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, NewClient(ts.URL)
}

// TestFig9JobEndToEnd is the acceptance path: a Fig. 9-shaped sweep
// submitted over HTTP returns rows DeepEqual to an in-process run;
// resubmitting against the same store simulates zero cells; and a fresh
// server over the same store serves everything from disk.
func TestFig9JobEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	want := inProcessFig9(t, testOpts()).Fig9

	svc, client := newTestServer(t, Config{
		Engine:  sim.EngineConfig{Parallelism: 4, ResultDir: dir},
		Workers: 2,
	})

	var progressed bool
	job, err := client.Run(ctx, testSpec(), func(done, total int) { progressed = true })
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone {
		t.Fatalf("job state = %s (error %q), want done", job.State, job.Error)
	}
	// A fast job may finish before the event stream connects, so
	// client-side progress events are best-effort; the server-side
	// progress must always have reached the final cell count.
	if !progressed {
		t.Logf("job finished before the stream connected; no client-side progress events")
	}
	if job.Progress.Total == 0 || job.Progress.Done != job.Progress.Total {
		t.Errorf("terminal progress = %+v, want done == total > 0", job.Progress)
	}
	res, err := job.FigureResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindFig9 {
		t.Errorf("result kind = %q", res.Kind)
	}
	if !reflect.DeepEqual(res.Fig9, want) {
		t.Fatalf("HTTP rows differ from the in-process run:\nhttp:       %+v\nin-process: %+v", res.Fig9, want)
	}
	if job.Stats == nil || job.Stats.Simulated == 0 {
		t.Fatalf("cold job stats = %+v, want simulations", job.Stats)
	}
	cold := *job.Stats

	// Resubmit on the same server: zero simulations, all cache/store
	// hits (plus intra-batch dedup).
	warm, err := client.Run(ctx, testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.State != StateDone {
		t.Fatalf("warm job state = %s (%s)", warm.State, warm.Error)
	}
	ws := warm.Stats
	if ws.Simulated != 0 {
		t.Errorf("warm resubmission simulated %d cells, want 0 (stats %+v)", ws.Simulated, ws)
	}
	if ws.CacheHits+ws.StoreHits+ws.Deduped != ws.Submitted {
		t.Errorf("warm resubmission not fully served from cache/store: %+v", ws)
	}
	wres, err := warm.FigureResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wres.Fig9, want) {
		t.Error("warm resubmission changed rows")
	}

	// A fresh server over the same store: zero simulations, served from
	// the sharded on-disk store via its startup index.
	if svc.Engine().StoredCells() == 0 {
		t.Fatal("first server persisted no cells")
	}
	_, client2 := newTestServer(t, Config{
		Engine:  sim.EngineConfig{Parallelism: 4, ResultDir: dir},
		Workers: 1,
	})
	restarted, err := client2.Run(ctx, testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := restarted.Stats
	if rs.Simulated != 0 || rs.StoreHits == 0 {
		t.Errorf("restarted server stats = %+v, want 0 simulated and store hits", rs)
	}
	rres, err := restarted.FigureResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rres.Fig9, want) {
		t.Error("store round-trip through a restarted server changed rows")
	}
	_ = cold
}

// TestFigureJobProgressIsOneBar asserts a figure job's progress covers
// the whole figure: every sweep point resolves in one engine batch, so
// a 3-capacity fig9 job streams progress events with one constant Total
// (3 capacities x 6 policies x 1 mix sim cells plus 4 alone references)
// and a Done that never goes down and ends at Total.
func TestFigureJobProgressIsOneBar(t *testing.T) {
	svc := New(Config{Engine: sim.EngineConfig{Parallelism: 2}, Workers: 1})
	t.Cleanup(svc.Close)
	spec := testSpec()
	spec.Capacities = []int{8, 16, 32}
	j := newJob("j1", spec, time.Now())
	// Subscribe before the job runs, with room for every event, so the
	// stream's non-blocking sends drop none.
	events := make(chan Event, 1024)
	j.subs[events] = struct{}{}
	svc.runJob(j)
	if v := j.snapshot(); v.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", v.State, v.Error)
	}

	const total = 3*6 + 4
	var progress []Progress
	for len(events) > 0 {
		if ev := <-events; ev.Name == "progress" {
			progress = append(progress, ev.Data.(Progress))
		}
	}
	if len(progress) == 0 {
		t.Fatal("no progress events")
	}
	for i, p := range progress {
		if p.Total != total {
			t.Fatalf("progress event %d: total %d, want %d for the whole figure", i, p.Total, total)
		}
		if i > 0 && p.Done < progress[i-1].Done {
			t.Fatalf("progress event %d: done went down from %d to %d", i, progress[i-1].Done, p.Done)
		}
	}
	if last := progress[len(progress)-1]; last.Done != total {
		t.Fatalf("last progress event done = %d, want %d", last.Done, total)
	}
}

// TestConcurrentColdJobsSimulateOnce asserts the cross-request
// singleflight at service level: two identical cold jobs submitted
// together simulate each cell exactly once between them.
func TestConcurrentColdJobsSimulateOnce(t *testing.T) {
	ctx := context.Background()

	// Reference: how many unique cells does this sweep have?
	ref := inProcessFig9(t, testOpts())
	want, unique := ref.Fig9, ref.Stats.Simulated
	if unique == 0 {
		t.Fatal("reference run simulated nothing")
	}

	svc, client := newTestServer(t, Config{
		Engine:  sim.EngineConfig{Parallelism: 4},
		Workers: 2,
	})
	a, err := client.Submit(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Submit(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	ja, err := client.Wait(ctx, a.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := client.Wait(ctx, b.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ja.State != StateDone || jb.State != StateDone {
		t.Fatalf("states = %s / %s (%s %s)", ja.State, jb.State, ja.Error, jb.Error)
	}
	if got := svc.Engine().Stats().Simulated; got != unique {
		t.Errorf("two concurrent cold jobs simulated %d cells total, want %d (each cell exactly once)", got, unique)
	}
	ra, _ := ja.FigureResult()
	rb, _ := jb.FigureResult()
	if !reflect.DeepEqual(ra.Fig9, want) || !reflect.DeepEqual(rb.Fig9, want) {
		t.Error("concurrent jobs returned rows differing from the reference")
	}
}

// TestTraceWorkloadJobEndToEnd is the custom-workload acceptance path:
// a trace recorded from a synthetic run replays byte-identically — the
// same figure rows through the CLI code path (sim.RunFigure with explicit
// mixes, exactly what `hira-sim -trace -json` runs) and through a
// service job referencing the trace by file — and a warm resubmission
// simulates zero cells.
func TestTraceWorkloadJobEndToEnd(t *testing.T) {
	ctx := context.Background()
	traceDir := t.TempDir()

	// Record the trace the way `hira-sim -record` does.
	mcf, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := workload.Record("t1.trace", mcf, 1, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTraceFile(filepath.Join(traceDir, "t1.trace"), rec.Accesses()); err != nil {
		t.Fatal(err)
	}

	// CLI-equivalent reference: load the file back and run the sweep
	// with the same round-robin mix rule hira-sim -trace applies.
	tr, err := workload.LoadTrace(filepath.Join(traceDir, "t1.trace"))
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.Mixes = workload.RoundRobinMixes([]workload.Source{tr}, 1, opts.Cores)
	want := inProcessFig9(t, opts).Fig9

	_, client := newTestServer(t, Config{
		Engine:   sim.EngineConfig{Parallelism: 4},
		Workers:  2,
		TraceDir: traceDir,
	})
	spec := testSpec()
	spec.Workloads = &WorkloadsSpec{
		Traces: []TraceSpec{{Name: "t1", File: "t1.trace"}},
		Mixes:  [][]string{{"t1", "t1", "t1", "t1"}},
	}
	job, err := client.Run(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone {
		t.Fatalf("trace job state = %s (%s)", job.State, job.Error)
	}
	res, err := job.FigureResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Fig9, want) {
		t.Fatalf("trace-driven HTTP rows differ from the CLI code path:\nhttp: %+v\ncli:  %+v", res.Fig9, want)
	}
	if job.Stats == nil || job.Stats.Simulated == 0 {
		t.Fatalf("cold trace job stats = %+v, want simulations", job.Stats)
	}

	// Warm resubmission: the trace's digest-based cell keys are stable,
	// so nothing simulates again.
	warm, err := client.Run(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.State != StateDone || warm.Stats.Simulated != 0 {
		t.Fatalf("warm trace resubmission: state %s, simulated %d (want done, 0)",
			warm.State, warm.Stats.Simulated)
	}
	wres, err := warm.FigureResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wres.Fig9, want) {
		t.Error("warm trace resubmission changed rows")
	}

	// A builtin-mix run of the same shape must NOT share the trace run's
	// cells (distinct workload identities).
	builtin, err := client.Run(ctx, testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if builtin.Stats == nil || builtin.Stats.Simulated == 0 {
		t.Fatalf("builtin-mix job was served from trace-workload cells: %+v", builtin.Stats)
	}
}

// TestCustomProfileJob runs a "policies" job over an inline custom
// profile mixed with a builtin benchmark and checks it against the
// in-process result.
func TestCustomProfileJob(t *testing.T) {
	ctx := context.Background()
	hot := workload.Profile{Name: "hot", MPKI: 50, RowLocality: 0.1, FootprintMB: 8, WriteFrac: 0.5}
	mcf, _ := workload.ProfileByName("mcf")
	opts := sim.Options{Cores: 2, Warmup: 2000, Measure: 6000, Seed: 1,
		Mixes: []workload.SourceMix{{ID: 0, Sources: []workload.Source{mcf, hot}}}}
	want, err := sim.RunPolicies(ctx, sim.DefaultConfig(), []sim.RefreshPolicy{sim.BaselinePolicy()}, opts)
	if err != nil {
		t.Fatal(err)
	}

	_, client := newTestServer(t, Config{Workers: 1})
	job, err := client.Run(ctx, JobSpec{
		Kind:     KindPolicies,
		Policies: []PolicySpec{{Type: "baseline"}},
		Sim:      &SimSpec{Cores: 2, Warmup: 2000, Measure: 6000, Seed: 1},
		Workloads: &WorkloadsSpec{
			Mixes:    [][]string{{"mcf", "hot"}},
			Profiles: []ProfileSpec{{Name: "hot", MPKI: 50, RowLocality: 0.1, FootprintMB: 8, WriteFrac: 0.5}},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone {
		t.Fatalf("job state = %s (%s)", job.State, job.Error)
	}
	var res PoliciesResult
	if err := json.Unmarshal(job.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Policies, want) {
		t.Fatalf("custom-profile HTTP scores differ from in-process:\nhttp: %+v\nwant: %+v", res.Policies, want)
	}
}

// TestWorkloadSpecValidation covers the workloads-object 400 paths,
// including trace references that must fail at submission, not as jobs.
func TestWorkloadSpecValidation(t *testing.T) {
	ctx := context.Background()
	traceDir := t.TempDir()
	_, client := newTestServer(t, Config{Workers: 1, TraceDir: traceDir})

	wl := func(w WorkloadsSpec) JobSpec {
		s := testSpec()
		s.Workloads = &w
		return s
	}
	cases := map[string]JobSpec{
		"empty mixes":    wl(WorkloadsSpec{}),
		"short mix":      wl(WorkloadsSpec{Mixes: [][]string{{"mcf"}}}),
		"unknown name":   wl(WorkloadsSpec{Mixes: [][]string{{"mcf", "mcf", "mcf", "nope"}}}),
		"builtin shadow": wl(WorkloadsSpec{Mixes: [][]string{{"mcf", "mcf", "mcf", "mcf"}}, Profiles: []ProfileSpec{{Name: "mcf", MPKI: 1, FootprintMB: 1}}}),
		"bad profile":    wl(WorkloadsSpec{Mixes: [][]string{{"hot", "hot", "hot", "hot"}}, Profiles: []ProfileSpec{{Name: "hot", MPKI: -4, FootprintMB: 1}}}),
		"path traversal": wl(WorkloadsSpec{Mixes: [][]string{{"t", "t", "t", "t"}}, Traces: []TraceSpec{{Name: "t", File: "../../etc/passwd"}}}),
		"missing trace":  wl(WorkloadsSpec{Mixes: [][]string{{"t", "t", "t", "t"}}, Traces: []TraceSpec{{Name: "t", File: "absent.trace"}}}),
		"workloads on area": func() JobSpec {
			return JobSpec{Kind: KindArea, Workloads: &WorkloadsSpec{Mixes: [][]string{{"mcf"}}}}
		}(),
	}
	for name, spec := range cases {
		if _, err := client.Submit(ctx, spec); err == nil {
			t.Errorf("%s: accepted, want 400", name)
		} else if !strings.Contains(err.Error(), "invalid job spec") {
			t.Errorf("%s: err %v, want invalid-job-spec 400", name, err)
		}
	}

	// A trace reference against a server with no trace directory is a
	// 400 too (not a failed job).
	_, noTraces := newTestServer(t, Config{Workers: 1})
	withTrace := wl(WorkloadsSpec{Mixes: [][]string{{"t", "t", "t", "t"}}, Traces: []TraceSpec{{Name: "t", File: "t.trace"}}})
	if _, err := noTraces.Submit(ctx, withTrace); err == nil || !strings.Contains(err.Error(), "trace directory") {
		t.Errorf("trace spec without TraceDir: err %v, want trace-directory 400", err)
	}
}

// seqInts returns [1, 2, ..., n].
func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// TestValidationErrors covers the 400 paths.
func TestValidationErrors(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	cases := []JobSpec{
		{},                                     // missing kind
		{Kind: "fig99"},                        // unknown kind
		{Kind: KindFig9, NRHs: []int{64}},      // wrong grid for the kind
		{Kind: KindFig9, Xs: []int{1, 2}},      // fig9 has no channel axis
		{Kind: KindFig9, Capacities: []int{0}}, // out-of-range value
		{Kind: KindFig9, Sim: &SimSpec{Workloads: 100000}}, // over limits
		{Kind: KindPolicies}, // no policies
		{Kind: KindPolicies, Policies: []PolicySpec{{Type: "para"}}},         // para without nrh
		{Kind: KindPolicies, Policies: []PolicySpec{{Type: "warp"}}},         // unknown policy
		{Kind: KindCharacterize, Charz: &CharzSpec{Modules: []string{"Z9"}}}, // unknown module
		{Kind: KindArea, Sim: &SimSpec{}},                                    // area takes no parameters
		// Each axis within bounds, but the product is days of compute.
		{Kind: KindFig9, Capacities: seqInts(32), Sim: &SimSpec{Workloads: 128, Measure: 9_000_000}},
	}
	for _, spec := range cases {
		if _, err := client.Submit(ctx, spec); err == nil {
			t.Errorf("spec %+v accepted, want validation error", spec)
		} else if !strings.Contains(err.Error(), "invalid job spec") {
			t.Errorf("spec %+v error %v, want an invalid-job-spec 400", spec, err)
		}
	}

	// Raw-body cases the Go client cannot produce (omitempty elides
	// empty slices): unknown fields and explicitly empty grids.
	rawCases := []string{
		`{"kind":"fig9","frobnicate":1}`,
		`{"kind":"fig9","capacities":[]}`, // omit the field for defaults
	}
	for _, body := range rawCases {
		resp, err := http.Post(client.BaseURL+"/v1/jobs", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s got %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestUnknownJob covers the 404 paths.
func TestUnknownJob(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	if _, err := client.Job(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("GET unknown job err = %v, want 404", err)
	}
	if err := client.Cancel(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("DELETE unknown job err = %v, want 404", err)
	}
	resp, err := http.Get(client.BaseURL + "/v1/jobs/nope/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("stream of unknown job got %d, want 404", resp.StatusCode)
	}
}

// TestCancelQueuedAndRunning exercises both cancellation paths on a
// single-worker server: the running job is interrupted mid-simulation,
// the queued job is finalized without ever starting.
func TestCancelQueuedAndRunning(t *testing.T) {
	svc, client := newTestServer(t, Config{
		Engine:  sim.EngineConfig{Parallelism: 2},
		Workers: 1,
	})
	ctx := context.Background()

	// A big enough sweep to still be running when the cancel lands.
	big := JobSpec{
		Kind:       KindFig9,
		Capacities: []int{8, 16, 32, 64},
		Sim:        &SimSpec{Workloads: 2, Cores: 8, Warmup: 20000, Measure: 200000, Seed: 1},
	}
	running, err := client.Submit(ctx, big)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := client.Submit(ctx, big)
	if err != nil {
		t.Fatal(err)
	}

	if err := client.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	q, err := client.Job(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if q.State != StateCancelled {
		t.Errorf("queued job state after cancel = %s, want cancelled", q.State)
	}

	if err := client.Cancel(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	r, err := client.Wait(ctx, running.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != StateCancelled {
		t.Errorf("running job state after cancel = %s (%s), want cancelled", r.State, r.Error)
	}
	if r.Result != nil {
		t.Error("cancelled job carries a result")
	}

	// Cancelling a finished job conflicts.
	small, err := client.Run(ctx, testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Cancel(ctx, small.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("cancel of finished job err = %v, want 409", err)
	}
	_ = svc
}

// TestPoliciesJob runs a direct RunPolicies evaluation over HTTP and
// checks it against the in-process result.
func TestPoliciesJob(t *testing.T) {
	ctx := context.Background()
	base := sim.DefaultConfig()
	base.ChipCapacityGbit = 32
	policies := []sim.RefreshPolicy{sim.BaselinePolicy(), sim.HiRAPeriodicPolicy(2)}
	want, err := sim.RunPolicies(ctx, base, policies, testOpts())
	if err != nil {
		t.Fatal(err)
	}

	_, client := newTestServer(t, Config{Workers: 1})
	job, err := client.Run(ctx, JobSpec{
		Kind:     KindPolicies,
		Config:   &ConfigSpec{CapacityGbit: 32},
		Policies: []PolicySpec{{Type: "baseline"}, {Type: "hira", Slack: 2}},
		Sim:      &SimSpec{Workloads: 1, Cores: 4, Warmup: 2000, Measure: 6000, Seed: 1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone {
		t.Fatalf("job state = %s (%s)", job.State, job.Error)
	}
	var res PoliciesResult
	if err := json.Unmarshal(job.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Policies, want) {
		t.Fatalf("HTTP policy scores differ from in-process RunPolicies:\nhttp:       %+v\nin-process: %+v", res.Policies, want)
	}
}

// TestAreaAndSecurityJobs smoke-tests the non-simulation kinds.
func TestAreaAndSecurityJobs(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	area, err := client.Run(ctx, JobSpec{Kind: KindArea}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if area.State != StateDone {
		t.Fatalf("area job: %s (%s)", area.State, area.Error)
	}
	var rep struct {
		TotalAreaMM2 float64 `json:"TotalAreaMM2"`
	}
	if err := json.Unmarshal(area.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.TotalAreaMM2 <= 0 {
		t.Errorf("area result %s lacks a positive TotalAreaMM2", area.Result)
	}

	sec, err := client.Run(ctx, JobSpec{Kind: KindSecurity}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sec.State != StateDone {
		t.Fatalf("security job: %s (%s)", sec.State, sec.Error)
	}
	var pts []struct {
		NRH int     `json:"NRH"`
		Pth float64 `json:"Pth"`
	}
	if err := json.Unmarshal(sec.Result, &pts); err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 || pts[0].Pth <= 0 {
		t.Errorf("security result has %d points", len(pts))
	}
}

// TestListAndStats covers the listing and stats endpoints.
func TestListAndStats(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	if _, err := client.Run(ctx, JobSpec{Kind: KindArea}, nil); err != nil {
		t.Fatal(err)
	}
	jobs, err := client.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Result != nil {
		t.Errorf("listing = %+v, want one job with result elided", jobs)
	}
	rep, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs[StateDone] != 1 {
		t.Errorf("stats jobs = %+v, want one done", rep.Jobs)
	}
	if rep.Parallelism < 1 {
		t.Errorf("stats parallelism = %d", rep.Parallelism)
	}
}

// TestFinishedJobEviction asserts the job table stays bounded: once
// more than retainJobs are tracked, the oldest finished jobs (and their
// pinned result payloads) are dropped, while recent ones stay
// queryable.
func TestFinishedJobEviction(t *testing.T) {
	// Each job is submitted two minutes after the previous one finished,
	// so every finished job is past the one-minute retainFor window.
	clk := &testClock{t: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)}
	_, client := newTestServer(t, Config{Workers: 1, now: clk.now})
	ctx := context.Background()
	var ids []string
	for i := 0; i < retainJobs+2; i++ {
		clk.advance(2 * retainFor)
		j, err := client.Run(ctx, JobSpec{Kind: KindArea}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone {
			t.Fatalf("job %s state = %s", j.ID, j.State)
		}
		ids = append(ids, j.ID)
	}
	jobs, err := client.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) > retainJobs {
		t.Errorf("listing retains %d finished jobs, want <= retainJobs (%d)", len(jobs), retainJobs)
	}
	if _, err := client.Job(ctx, ids[0]); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("oldest job still queryable after eviction (err %v)", err)
	}
	if _, err := client.Job(ctx, ids[len(ids)-1]); err != nil {
		t.Errorf("newest job evicted: %v", err)
	}
}

// testClock is an injectable Config.now that only moves when told to.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestEvictionOrderAndGrace drives eviction with an injected clock:
// finished jobs inside retainFor are never evicted, however far the
// table is over retainJobs; once the clock passes the cutoff, the next
// submission evicts in finish order (a job submitted first but finished
// after the jobs behind it outlives them); and the listing, /v1/stats
// and the hira_jobs_retained gauge all agree with what is left.
func TestEvictionOrderAndGrace(t *testing.T) {
	clk := &testClock{t: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)}
	_, client := newTestServer(t, Config{Workers: 2, now: clk.now})
	ctx := context.Background()
	area := JobSpec{Kind: KindArea}
	run := func() string {
		t.Helper()
		j, err := client.Run(ctx, area, nil)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone {
			t.Fatalf("job %s state = %s", j.ID, j.State)
		}
		return j.ID
	}
	listed := func() []string {
		t.Helper()
		jobs, err := client.Jobs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(jobs))
		for i, j := range jobs {
			ids[i] = j.ID
		}
		return ids
	}
	queryable := func(id string) bool {
		t.Helper()
		_, err := client.Job(ctx, id)
		if err != nil && !strings.Contains(err.Error(), "404") {
			t.Fatal(err)
		}
		return err == nil
	}

	// long holds a worker until cancelled, so it finishes after the area
	// jobs submitted behind it.
	long, err := client.Submit(ctx, JobSpec{
		Kind:       KindFig9,
		Capacities: []int{64},
		Sim:        &SimSpec{Workloads: 2, Cores: 8, Warmup: 20000, Measure: 2000000, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var early []string
	for i := 0; i < 3; i++ {
		clk.advance(time.Second)
		early = append(early, run())
	}
	clk.advance(time.Second)
	if err := client.Cancel(ctx, long.ID); err != nil {
		t.Fatal(err)
	}
	if j, err := client.Wait(ctx, long.ID, nil); err != nil || j.State != StateCancelled {
		t.Fatalf("long job after cancel: %+v, %v", j, err)
	}
	// late finish after long and fill the table to two over the bound,
	// all inside the grace window.
	clk.advance(time.Second)
	var late []string
	for len(early)+len(late)+1 < retainJobs+2 {
		late = append(late, run())
	}
	want := append(append([]string{long.ID}, early...), late...)
	if got := listed(); !reflect.DeepEqual(got, want) {
		t.Fatalf("listing inside the grace window = %v, want %v", got, want)
	}
	for _, id := range want {
		if !queryable(id) {
			t.Errorf("job %s evicted inside the grace window", id)
		}
	}

	// Past the cutoff for every job: the next submission evicts the
	// three earliest-finished jobs, keeping long (finished after them).
	clk.advance(2 * retainFor)
	next := run()
	for _, id := range early {
		if queryable(id) {
			t.Errorf("job %s, finished before %s, survived eviction", id, long.ID)
		}
	}
	if got, want := listed(), append(append([]string{long.ID}, late...), next); !reflect.DeepEqual(got, want) {
		t.Errorf("listing after eviction = %v, want %v", got, want)
	}

	// One more submission evicts one job, long, and the listing skips
	// it in submission order.
	last := run()
	if queryable(long.ID) {
		t.Errorf("job %s survived the second eviction", long.ID)
	}
	if got, want := listed(), append(append([]string{}, late...), next, last); !reflect.DeepEqual(got, want) {
		t.Errorf("listing after the second eviction = %v, want %v", got, want)
	}

	jobs, err := client.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fromList := map[JobState]int{}
	for _, j := range jobs {
		fromList[j.State]++
	}
	rep, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Jobs, fromList) {
		t.Errorf("/v1/stats jobs = %v, listing counts %v", rep.Jobs, fromList)
	}
	if v := metricValue(t, scrape(t, client), "hira_jobs_retained"); v != float64(len(jobs)) {
		t.Errorf("hira_jobs_retained = %g, want %d", v, len(jobs))
	}
}

// TestCancelFreesQueueSlot asserts a cancelled pending job releases its
// queue slot immediately, so new submissions are not spuriously 503'd
// by tombstones.
func TestCancelFreesQueueSlot(t *testing.T) {
	_, client := newTestServer(t, Config{
		Engine:     sim.EngineConfig{Parallelism: 1},
		Workers:    1,
		QueueDepth: 1,
	})
	// These tests assert the raw queue-full 503 contract; the client's
	// default retry-on-503 would wait out the queue and hide it.
	client.MaxRetries = -1
	ctx := context.Background()
	long := JobSpec{
		Kind:       KindFig9,
		Capacities: []int{64},
		Sim:        &SimSpec{Workloads: 2, Cores: 8, Warmup: 20000, Measure: 200000, Seed: 1},
	}
	running, err := client.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the one queue slot (retry while the worker races us to pop
	// the first job off the pending list).
	var queued *Job
	for {
		queued, err = client.Submit(ctx, long)
		if err == nil {
			break
		}
		if !strings.Contains(err.Error(), "503") {
			t.Fatal(err)
		}
	}
	// Saturate: one more submission must bounce ... eventually; the
	// worker may pop `queued` first, in which case this submission
	// occupies the slot and the next one bounces.
	var extras []string
	sawReject := false
	for i := 0; i < 3 && !sawReject; i++ {
		j, err := client.Submit(ctx, long)
		if err != nil {
			if !strings.Contains(err.Error(), "503") {
				t.Fatal(err)
			}
			sawReject = true
		} else {
			extras = append(extras, j.ID)
		}
	}
	if !sawReject {
		t.Fatal("queue with depth 1 accepted every submission")
	}
	// Cancel the pending job: its slot frees instantly and the next
	// submission is accepted.
	if err := client.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	freed, err := client.Submit(ctx, long)
	if err != nil {
		t.Fatalf("submission after cancelling the pending job still rejected: %v", err)
	}
	for _, id := range append(extras, running.ID, freed.ID) {
		client.Cancel(ctx, id)
	}
}

// TestQueueFull asserts a saturated queue 503s instead of queueing
// unboundedly.
func TestQueueFull(t *testing.T) {
	_, client := newTestServer(t, Config{
		Engine:     sim.EngineConfig{Parallelism: 1},
		Workers:    1,
		QueueDepth: 1,
	})
	// These tests assert the raw queue-full 503 contract; the client's
	// default retry-on-503 would wait out the queue and hide it.
	client.MaxRetries = -1
	ctx := context.Background()
	// One slow job occupies the worker; one fills the queue; the third
	// must bounce. (The first job may pop from the queue immediately, so
	// allow one extra submission before asserting.)
	slow := JobSpec{
		Kind:       KindFig9,
		Capacities: []int{32, 64},
		Sim:        &SimSpec{Workloads: 2, Cores: 8, Warmup: 20000, Measure: 200000, Seed: 1},
	}
	var ids []string
	var sawReject bool
	for i := 0; i < 4; i++ {
		j, err := client.Submit(ctx, slow)
		if err != nil {
			if !strings.Contains(err.Error(), "503") {
				t.Fatalf("submission %d failed with %v, want 503", i, err)
			}
			sawReject = true
			break
		}
		ids = append(ids, j.ID)
	}
	if !sawReject {
		t.Error("queue never filled: 4 submissions accepted with depth 1")
	}
	for _, id := range ids {
		client.Cancel(ctx, id)
	}
	for _, id := range ids {
		if _, err := client.Wait(ctx, id, nil); err != nil {
			t.Fatal(err)
		}
	}
}
