package service

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hira/internal/sim"
)

// Regenerate the metric-catalogue golden with:
//
//	go test ./internal/service -run TestMetricsFamiliesGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden files in testdata/")

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, c *Client) string {
	t.Helper()
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s\n%s", resp.Status, body)
	}
	return string(body)
}

// metricValue returns the first sample of the named series (any labels).
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // a longer name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparsable sample %q", line)
		}
		return v
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestMetricsFamiliesGolden locks down the metric catalogue: every
// family name and kind the server exposes, compared against a reviewed
// golden. A rename, a dropped metric, or an accidental kind change
// (counter -> gauge) fails here before any dashboard breaks.
func TestMetricsFamiliesGolden(t *testing.T) {
	_, c := newTestServer(t, Config{
		Engine:  sim.EngineConfig{ResultDir: t.TempDir(), SnapInterval: 1500},
		Workers: 1,
	})
	body := scrape(t, c)

	var fams []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fams = append(fams, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	sort.Strings(fams)
	got := strings.Join(fams, "\n") + "\n"

	golden := filepath.Join("testdata", "metrics_families.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate the fixture)", err)
	}
	if got != string(want) {
		t.Fatalf("metric catalogue changed (regenerate with -update and review the diff)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetricsConcurrentScrape runs concurrent jobs while hammering
// /metrics, then checks the tallies the scrape reports. Under -race
// (CI runs this package with it) this also proves instruments and
// scrapes never race the hot paths.
func TestMetricsConcurrentScrape(t *testing.T) {
	_, c := newTestServer(t, Config{
		Engine:  sim.EngineConfig{SnapInterval: 1500},
		Workers: 2,
	})
	ctx := context.Background()

	specs := []JobSpec{testSpec(), testSpec()}
	specs[1].Sim.Measure = 8000 // distinct cells so both jobs simulate

	done := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-done:
				return
			default:
				scrape(t, c)
			}
		}
	}()

	var jobWG sync.WaitGroup
	for _, spec := range specs {
		jobWG.Add(1)
		go func(spec JobSpec) {
			defer jobWG.Done()
			j, err := c.Run(ctx, spec, nil)
			if err != nil {
				t.Errorf("run: %v", err)
				return
			}
			if j.State != StateDone {
				t.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
			}
		}(spec)
	}
	jobWG.Wait()
	close(done)
	scrapeWG.Wait()

	body := scrape(t, c)
	if v := metricValue(t, body, "hira_engine_cells_simulated_total"); v == 0 {
		t.Error("no simulated cells tallied")
	}
	if v := metricValue(t, body, "hira_engine_cell_seconds_count"); v == 0 {
		t.Error("no cell durations observed")
	}
	if v := metricValue(t, body, `hira_jobs_finished_total{state="done"}`); v != 2 {
		t.Errorf("finished{done} = %g, want 2", v)
	}
	if v := metricValue(t, body, "hira_jobs_submitted_total"); v != 2 {
		t.Errorf("submitted = %g, want 2", v)
	}
	if v := metricValue(t, body, "hira_snapstore_saves_total"); v == 0 {
		t.Error("no checkpoints saved")
	}
	if v := metricValue(t, body, "hira_sched_acts_total"); v == 0 {
		t.Error("no scheduler aggregates sampled")
	}
	if v := metricValue(t, body, "hira_job_run_seconds_count"); v != 2 {
		t.Errorf("run latency observations = %g, want 2", v)
	}
	if v := metricValue(t, body, "hira_jobs_retained"); v != 2 {
		t.Errorf("retained jobs = %g, want 2", v)
	}
}

// TestJobTraceTimeline drives the trace recorder end to end: a cold
// job's timeline shows simulate spans, a warm resubmission's shows
// none, and a horizon extension's checkpoint-lookup spans attribute
// exactly the job's ResumedTicks.
func TestJobTraceTimeline(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, Config{
		Engine:  sim.EngineConfig{ResultDir: dir, SnapInterval: 1500},
		Workers: 1,
	})
	ctx := context.Background()

	countSpans := func(id string, name string) int {
		v, err := c.Trace(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, sp := range v.Spans {
			if sp.Name == name {
				n++
			}
		}
		return n
	}

	cold, err := c.Run(ctx, testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.State != StateDone {
		t.Fatalf("cold job %s: %s", cold.State, cold.Error)
	}
	for _, name := range []string{"queued", "run", "cell", "simulate", "checkpoint-save", "store-write"} {
		if countSpans(cold.ID, name) == 0 {
			t.Errorf("cold trace has no %q span", name)
		}
	}

	// Warm resubmit: every cell answers from the in-memory cache, so the
	// timeline holds job-level spans only — zero simulate, zero cell.
	warm, err := c.Run(ctx, testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Simulated != 0 {
		t.Fatalf("warm resubmit simulated %d cells", warm.Stats.Simulated)
	}
	if n := countSpans(warm.ID, "simulate"); n != 0 {
		t.Errorf("warm trace has %d simulate spans, want 0", n)
	}
	if countSpans(warm.ID, "queued") == 0 || countSpans(warm.ID, "run") == 0 {
		t.Error("warm trace lost its job-level spans")
	}

	// Horizon extension: cells resume from checkpoints; the hit
	// checkpoint-lookup spans' tick attributes must sum to exactly the
	// job's ResumedTicks, and the streamed progress events must carry
	// the resume tallies.
	ext := testSpec()
	ext.Sim.Measure = 14000
	sub, err := c.Submit(ctx, ext)
	if err != nil {
		t.Fatal(err)
	}
	var progresses []Progress
	extJob, err := c.WaitProgress(ctx, sub.ID, func(p Progress) { progresses = append(progresses, p) })
	if err != nil {
		t.Fatal(err)
	}
	if extJob.State != StateDone {
		t.Fatalf("extension job %s: %s", extJob.State, extJob.Error)
	}
	if extJob.Stats.Resumed == 0 || extJob.Stats.ResumedTicks == 0 {
		t.Fatalf("extension did not resume: %+v", extJob.Stats)
	}
	v, err := c.Trace(ctx, extJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	var attributed uint64
	hits := 0
	for _, sp := range v.Spans {
		if sp.Name != "checkpoint-lookup" {
			continue
		}
		if hit, _ := sp.Attrs["hit"].(bool); !hit {
			continue
		}
		tick, ok := sp.Attrs["tick"].(float64)
		if !ok {
			t.Fatalf("hit lookup span without tick attr: %+v", sp)
		}
		attributed += uint64(tick)
		hits++
	}
	if uint64(hits) != extJob.Stats.Resumed {
		t.Errorf("trace shows %d resume hits, stats %d", hits, extJob.Stats.Resumed)
	}
	if attributed != extJob.Stats.ResumedTicks {
		t.Errorf("trace attributes %d resumed ticks, stats %d", attributed, extJob.Stats.ResumedTicks)
	}

	if len(progresses) == 0 {
		t.Fatal("no progress events streamed")
	}
	last := progresses[len(progresses)-1]
	if last.Done != last.Total {
		t.Fatalf("last progress %d/%d", last.Done, last.Total)
	}
	if last.Resumed == 0 || last.ResumedTicks == 0 {
		t.Errorf("final progress event missing resume tallies: %+v", last)
	}
	if last.Snapshots == nil || last.Snapshots.Hits == 0 {
		t.Errorf("final progress event missing snapshot-store summary: %+v", last.Snapshots)
	}

	// The Chrome export is valid trace-event JSON.
	resp, err := http.Get(c.BaseURL + "/v1/jobs/" + extJob.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export is empty")
	}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("chrome event %q has phase %q", ev.Name, ev.Ph)
		}
	}
}
