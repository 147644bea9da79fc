package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hira/internal/service"
	"hira/internal/sim"
	"hira/internal/telemetry"
)

// liveServer is an in-process hira-server on a loopback listener.
type liveServer struct {
	svc       *service.Server
	hs        *http.Server
	transport *http.Transport
	base      string
	served    chan struct{}
}

// startServer builds a server with hira-server's default engine
// configuration (in-memory checkpoints every 10k ticks, telemetry on,
// two job workers) and waits until /readyz answers 200.
func startServer(ctx context.Context) (*liveServer, error) {
	reg := telemetry.NewRegistry()
	reg.RegisterProcessMetrics()
	svc := service.New(service.Config{
		Engine:    sim.EngineConfig{Parallelism: benchParallelism, SnapInterval: snapInterval},
		Workers:   2,
		Telemetry: reg,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	ls := &liveServer{
		svc:       svc,
		hs:        &http.Server{Handler: svc.Handler()},
		transport: &http.Transport{MaxIdleConnsPerHost: 4 * warmClients},
		base:      "http://" + ln.Addr().String(),
		served:    make(chan struct{}),
	}
	go func() {
		defer close(ls.served)
		_ = ls.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	code, _, err := ls.get(ctx, "/readyz")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/readyz answered %d", code)
	}
	if err != nil {
		ls.close()
		return nil, err
	}
	return ls, nil
}

// close stops the listener and every connection, waits for Serve to
// return, then stops the job workers.
func (ls *liveServer) close() {
	_ = ls.hs.Close() // the only error is from closing an already-closed listener
	<-ls.served
	ls.svc.Close()
	ls.transport.CloseIdleConnections()
}

// get issues a GET and returns the status and body.
func (ls *liveServer) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ls.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := ls.transport.RoundTrip(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// benchClient is a service.Client whose transport counts rejected
// requests (4xx and 503) and polls of a job's status. service.Client
// falls back to polling only when the event stream ended without a
// terminal state, so a poll during a wait marks a failed stream.
type benchClient struct {
	*service.Client
	rejected atomic.Int64
	polls    atomic.Int64
	base     http.RoundTripper
}

func (ls *liveServer) client() *benchClient {
	c := &benchClient{base: ls.transport}
	c.Client = &service.Client{
		BaseURL:    ls.base,
		HTTPClient: &http.Client{Transport: c},
		// No retries: a 503 is a failed operation, not a delay.
		MaxRetries: -1,
	}
	return c
}

// RoundTrip implements http.RoundTripper.
func (c *benchClient) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err == nil && (resp.StatusCode/100 == 4 || resp.StatusCode == http.StatusServiceUnavailable) {
		c.rejected.Add(1)
	}
	if rest, ok := strings.CutPrefix(req.URL.Path, "/v1/jobs/"); ok && req.Method == http.MethodGet && !strings.Contains(rest, "/") {
		c.polls.Add(1)
	}
	return resp, err
}

// jobSample is one job's timings, measured from the client.
type jobSample struct {
	id              string
	total, submit   time.Duration // submit to terminal event; POST round trip
	queue, run, lag time.Duration // Started-Created, Finished-Started, terminal event-Finished
	resultBytes     int
	res             *sim.FigureResult
	stats           sim.EngineStats
}

// job submits spec and waits for its terminal event on the job's SSE
// stream. A rejected submission, a stream that ends without a terminal
// state, or a job that is not done is an error.
func (c *benchClient) job(ctx context.Context, spans *spanLog, spec service.JobSpec) (jobSample, error) {
	var s jobSample
	top := spans.start("service.job", -1)
	defer spans.end(top)
	t0 := time.Now()
	sp := spans.start("service.Client.Submit", top)
	j, err := c.Submit(ctx, spec)
	spans.end(sp)
	s.submit = time.Since(t0)
	if err != nil {
		return s, fmt.Errorf("submit: %w", err)
	}
	polls := c.polls.Load()
	sp = spans.start("service.Client.WaitProgress", top)
	final, err := c.WaitProgress(ctx, j.ID, nil)
	spans.end(sp)
	end := time.Now()
	s.total = end.Sub(t0)
	if err != nil {
		return s, fmt.Errorf("job %s: %w", j.ID, err)
	}
	if c.polls.Load() != polls {
		return s, fmt.Errorf("job %s: event stream ended without a terminal state", j.ID)
	}
	if final.State != service.StateDone {
		return s, fmt.Errorf("job %s ended %s: %s", j.ID, final.State, final.Error)
	}
	if final.Started == nil || final.Finished == nil || final.Stats == nil {
		return s, fmt.Errorf("job %s: terminal view lacks timestamps or engine stats", j.ID)
	}
	s.id = j.ID
	s.queue = final.Started.Sub(final.Created)
	s.run = final.Finished.Sub(*final.Started)
	s.lag = end.Sub(*final.Finished)
	s.resultBytes = len(final.Result)
	s.stats = *final.Stats
	if s.res, err = final.FigureResult(); err != nil {
		return s, fmt.Errorf("job %s: decoding result: %w", j.ID, err)
	}
	return s, nil
}

// serverPhase collects one measured phase of server-session.
type serverPhase struct {
	phase
	warmJobs              []jobSample // traced phases only
	scrapes               []float64   // ms per /metrics GET
	traceSpans, traceJobs int
	droppedSpans          uint64
	rejected              int64
}

// serverSession drives an in-process hira-server through service.Client:
// a cold Fig. 9 job, the same figure at a longer horizon (resumed from
// checkpoints), then 2 closed-loop clients resubmitting both specs.
// Each repetition runs on a fresh server.
func serverSession(r *run) error {
	ctx := context.Background()
	g := newGate(r.refs, r.seed)
	if !r.traced {
		setup := setupTimer{per: 10, run: func() (time.Duration, error) {
			t0 := time.Now()
			if _, err := makeInputs(r.seed); err != nil {
				return 0, err
			}
			ls, err := startServer(ctx)
			if err != nil {
				return 0, err
			}
			d := time.Since(t0)
			ls.close()
			return d, nil
		}}
		p, err := runServerPhase(ctx, r, g, r.budget, false, &setup)
		if err != nil {
			return err
		}
		reportEndToEnd(r, &p.phase)
	} else {
		var last *serverPhase
		err := tracedRun(r, fig9Layers(r.in),
			func(budget time.Duration, traced bool) (*phase, error) {
				p, err := runServerPhase(ctx, r, g, budget, traced, nil)
				if err != nil {
					return nil, err
				}
				last = p
				return &p.phase, nil
			})
		if err != nil {
			return err
		}
		reportService(r, last)
	}
	// The HTTP payloads must equal the in-process result for the same
	// spec, computed cold and straight through.
	for _, ext := range []bool{false, true} {
		label := labelServerCold
		if ext {
			label = labelServerExt
		}
		res, err := sim.Figure(ctx, "fig9", r.in.serverOptions(ext), nil, fig9Caps)
		if err != nil {
			return fmt.Errorf("in-process oracle: %w", err)
		}
		r.tally.op(g.check(label, res))
	}
	return nil
}

// runServerPhase runs server repetitions until the budget is spent (at
// least minReps). Traced phases also read each repetition's job traces,
// /metrics and /v1/stats. A non-nil setup times its set-ups before
// every repetition.
func runServerPhase(ctx context.Context, r *run, g *gate, budget time.Duration, traced bool, setup *setupTimer) (*serverPhase, error) {
	p := &serverPhase{}
	mem := readMem()
	start := time.Now()
	specs := []service.JobSpec{r.in.serverSpec(false), r.in.serverSpec(true)}
	labels := []string{labelServerCold, labelServerExt}
	for p.reps < minReps || time.Since(start)+time.Since(start)/time.Duration(p.reps) <= budget {
		if err := setup.time(&p.phase); err != nil {
			return nil, err
		}
		debug.FreeOSMemory() // as in sweepPhase
		p.reps++
		rss := startRSS()
		err := serverRep(ctx, r, g, p, specs, labels, traced)
		p.rss = append(p.rss, rss.stopMB())
		if err != nil {
			return nil, err
		}
	}
	p.mem = readMem().since(mem)
	return p, nil
}

// serverRep is one repetition on a fresh server.
func serverRep(ctx context.Context, r *run, g *gate, p *serverPhase, specs []service.JobSpec, labels []string, traced bool) error {
	ls, err := startServer(ctx)
	if err != nil {
		return err
	}
	defer ls.close()
	c := ls.client()
	var first [2]jobSample
	for i, spec := range specs {
		s, err := c.job(ctx, r.spans, spec)
		if err != nil {
			r.tally.op(err)
			return nil
		}
		r.tally.op(g.check(labels[i], s.res))
		first[i] = s
	}
	if first[1].stats.Resumed == 0 {
		r.tally.op(fmt.Errorf("%w: extension job resumed no cell from a checkpoint", errMismatch))
	} else {
		r.tally.op(nil)
	}
	p.cold = append(p.cold, seconds(first[0].total))
	p.next = append(p.next, seconds(first[1].total))
	p.sweep = append(p.sweep, seconds(first[0].total+first[1].total))

	clients := make([]*benchClient, warmClients)
	outs := make([][]warmJob, warmClients)
	var wg sync.WaitGroup
	for ci := range clients {
		clients[ci] = ls.client()
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := 0; i < warmPerRep/warmClients; i++ {
				k := (i + ci) % len(specs)
				s, err := clients[ci].job(ctx, r.spans, specs[k])
				if err == nil && s.stats.Simulated != 0 {
					err = fmt.Errorf("%w: warm job %s simulated %d cells", errMismatch, s.id, s.stats.Simulated)
				}
				if err == nil {
					err = g.check(labels[k], s.res)
				}
				outs[ci] = append(outs[ci], warmJob{s, err})
			}
		}(ci)
	}
	wg.Wait()
	var lat []float64
	for ci, o := range outs {
		p.rejected += clients[ci].rejected.Load()
		for _, w := range o {
			r.tally.op(w.err)
			if w.err != nil {
				continue
			}
			lat = append(lat, millis(w.total))
			if traced {
				// Keep the timings, not the decoded figure: a run
				// retaining every result would grow the heap the
				// later repetitions are measured in.
				w.res = nil
				p.warmJobs = append(p.warmJobs, w.jobSample)
			}
		}
	}
	p.addWarm(lat)
	p.rejected += c.rejected.Load()
	if traced {
		return readServerLayers(ctx, ls, c, p, first)
	}
	return nil
}

// warmJob is one warm resubmission and its gate verdict.
type warmJob struct {
	jobSample
	err error
}

// readServerLayers reads what the server exports after a repetition:
// the job traces (engine span totals of the cold and extension jobs,
// span counts of those and a sample of warm jobs), /metrics scrape
// times, and the engine and checkpoint-store tallies from /v1/stats.
func readServerLayers(ctx context.Context, ls *liveServer, c *benchClient, p *serverPhase, first [2]jobSample) error {
	totals := map[string]time.Duration{}
	ids := []string{first[0].id, first[1].id}
	for i := len(p.warmJobs) - 1; i >= 0 && len(ids) < 22; i-- {
		ids = append(ids, p.warmJobs[i].id)
	}
	for i, id := range ids {
		v, err := c.Trace(ctx, id)
		if err != nil {
			return fmt.Errorf("reading trace of %s: %w", id, err)
		}
		p.traceSpans += len(v.Spans)
		p.traceJobs++
		p.droppedSpans += v.DroppedSpans
		if i < 2 {
			for k, d := range spanTotals(*v) {
				totals[k] += d
			}
		}
	}
	p.spanTotals = append(p.spanTotals, totals)
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		code, _, err := ls.get(ctx, "/metrics")
		d := time.Since(t0)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("scraping /metrics: status %d, %v", code, err)
		}
		p.scrapes = append(p.scrapes, millis(d))
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("reading /v1/stats: %w", err)
	}
	p.engine = st.Engine
	if st.Snapshots != nil {
		p.snaps = *st.Snapshots
	}
	return nil
}

// reportService sets the service and telemetry layer metrics from the
// traced phase's warm jobs.
func reportService(r *run, p *serverPhase) {
	pick := func(f func(jobSample) time.Duration) float64 {
		xs := make([]float64, len(p.warmJobs))
		for i, j := range p.warmJobs {
			xs[i] = millis(f(j))
		}
		return median(xs)
	}
	n := len(p.warmJobs)
	r.set("service.submit_ms", pick(func(j jobSample) time.Duration { return j.submit }), "ms", n)
	r.set("service.queue_wait_ms", pick(func(j jobSample) time.Duration { return j.queue }), "ms", n)
	r.set("service.run_ms", pick(func(j jobSample) time.Duration { return j.run }), "ms", n)
	r.set("service.stream_lag_ms", pick(func(j jobSample) time.Duration { return j.lag }), "ms", n)
	kb := make([]float64, n)
	for i, j := range p.warmJobs {
		kb[i] = float64(j.resultBytes) / 1024
	}
	r.set("service.result_kb", median(kb), "KB", n)
	r.set("service.rejected", float64(p.rejected), "count", p.reps)
	r.set("telemetry.scrape_ms", median(p.scrapes), "ms", len(p.scrapes))
	r.set("telemetry.spans_per_job", float64(p.traceSpans)/float64(max(p.traceJobs, 1)), "count", p.traceJobs)
	r.set("telemetry.dropped_spans", float64(p.droppedSpans), "count", p.traceJobs)
}
