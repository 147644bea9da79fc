package service

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"hira/internal/sim"
)

// TestResumedJobsEndToEnd covers the resumable-cell path over HTTP: with
// checkpointing enabled, extending a sweep's measured horizon reports
// its sim cells as partially resumed (its alone-IPC references, which
// never checkpoint, simulate cold), the rows match a cold in-process run
// exactly, and /v1/stats exposes the checkpoint store's hit/miss/evict
// tallies.
func TestResumedJobsEndToEnd(t *testing.T) {
	ctx := context.Background()
	_, client := newTestServer(t, Config{
		Engine:  sim.EngineConfig{Parallelism: 4, SnapInterval: 1500},
		Workers: 2,
	})

	short := testSpec()
	job, err := client.Run(ctx, short, nil)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone {
		t.Fatalf("short job state = %s (%s)", job.State, job.Error)
	}
	if job.Stats.Resumed != 0 {
		t.Fatalf("cold job reported %d resumed cells", job.Stats.Resumed)
	}

	long := testSpec()
	long.Sim.Measure = 14000
	ext, err := client.Run(ctx, long, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ext.State != StateDone {
		t.Fatalf("extended job state = %s (%s)", ext.State, ext.Error)
	}
	longOpts := testOpts()
	longOpts.Measure = 14000
	// Every sim cell must have resumed from the short run's final tick;
	// the alone references, one per core, simulated from tick zero.
	simCells, err := sim.FigureCells(sim.FigureSpec{Kind: "fig9", Capacities: []int{8}}, longOpts)
	if err != nil {
		t.Fatal(err)
	}
	aloneCells := uint64(longOpts.Workloads * longOpts.Cores)
	if ext.Stats.Resumed != uint64(simCells) || ext.Stats.Simulated != uint64(simCells)+aloneCells {
		t.Fatalf("extended job stats = %+v, want %d of %d cells partially resumed", ext.Stats, simCells, uint64(simCells)+aloneCells)
	}
	if want := ext.Stats.Resumed * uint64(short.Sim.Warmup+short.Sim.Measure); ext.Stats.ResumedTicks != want {
		t.Fatalf("ResumedTicks = %d, want %d", ext.Stats.ResumedTicks, want)
	}

	want := inProcessFig9(t, longOpts).Fig9
	res, err := ext.FigureResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Fig9, want) {
		t.Fatalf("resumed rows differ from cold in-process run:\nhttp: %+v\ncold: %+v", res.Fig9, want)
	}

	resp, err := http.Get(client.BaseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep StatsReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Snapshots == nil {
		t.Fatal("/v1/stats omitted snapshot tallies with checkpointing enabled")
	}
	if rep.Snapshots.Saves == 0 || rep.Snapshots.Hits == 0 {
		t.Fatalf("snapshot tallies %+v, want saves and hits", rep.Snapshots)
	}
	if rep.Engine.Resumed != ext.Stats.Resumed {
		t.Fatalf("engine-wide Resumed = %d, job reported %d", rep.Engine.Resumed, ext.Stats.Resumed)
	}
}
