package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"hira/internal/workload"
)

// quickOpts keeps integration sweeps fast; shapes, not precision.
func quickOpts() Options {
	return Options{Workloads: 2, Cores: 8, Warmup: 10000, Measure: 40000, Seed: 1}
}

// quickFigure runs spec at quickOpts' scale on a one-sweep engine.
func quickFigure(t *testing.T, spec FigureSpec) *FigureResult {
	t.Helper()
	res, err := RunFigure(context.Background(), quickOpts(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// coldAloneIPC is the alone-IPC oracle: src's IPC on the unloaded
// fixed-latency memory (~60ns, an idle DRAM read round trip), run
// straight through from tick 0 with no engine, store or checkpoint.
func coldAloneIPC(t *testing.T, src workload.Source, seed uint64, ticks int) float64 {
	t.Helper()
	a := newAloneRun(src, seed)
	if err := a.RunTo(context.Background(), ticks); err != nil {
		t.Fatal(err)
	}
	return a.ipc()
}

func TestAloneIPCOrdering(t *testing.T) {
	mcf, _ := workload.ProfileByName("mcf")
	hmmer, _ := workload.ProfileByName("hmmer")
	ipcMCF := coldAloneIPC(t, mcf, 1, 40000)
	ipcHMMER := coldAloneIPC(t, hmmer, 1, 40000)
	if ipcMCF <= 0 || ipcHMMER <= 0 {
		t.Fatalf("non-positive alone IPC: mcf=%f hmmer=%f", ipcMCF, ipcHMMER)
	}
	if ipcMCF >= ipcHMMER {
		t.Errorf("memory-bound mcf IPC (%f) should be below compute-bound hmmer (%f)", ipcMCF, ipcHMMER)
	}
}

// TestOrgForCapacityScalesRows pins the capacity model the simulator
// runs: Table 3's 64K rows per bank at 8 Gb, and 512·(C/8)^0.6 rows per
// subarray across Fig. 9's capacities, the scaling of Expression 1's
// refresh work.
func TestOrgForCapacityScalesRows(t *testing.T) {
	for _, gbit := range Fig9Capacities() {
		cfg := DefaultConfig()
		cfg.ChipCapacityGbit, cfg.Channels, cfg.Ranks = gbit, 2, 4
		o := OrgFor(cfg)
		if err := o.Validate(); err != nil {
			t.Fatalf("%d Gb: %v", gbit, err)
		}
		want := int(math.Round(512 * math.Pow(float64(gbit)/8, 0.6)))
		if o.RowsPerSubarray != want {
			t.Errorf("%d Gb: RowsPerSubarray = %d, want %d", gbit, o.RowsPerSubarray, want)
		}
		if gbit == 8 && o.RowsPerBank() != 64<<10 {
			t.Errorf("8 Gb: RowsPerBank = %d, want 64K (Table 3)", o.RowsPerBank())
		}
		if o.ChipCapacityGbit != gbit || o.Channels != 2 || o.RanksPerChannel != 4 {
			t.Errorf("%d Gb: org %+v does not carry the config's capacity, channels and ranks", gbit, o)
		}
	}
}

func TestSystemRunsAndProducesIPC(t *testing.T) {
	cfg := DefaultConfig()
	mix := workload.Mixes(1, 8, 1)[0].Sources()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	res := runCold(t, sys, 5000, 30000)
	if len(res.IPC) != 8 {
		t.Fatalf("got %d IPC values", len(res.IPC))
	}
	for i, ipc := range res.IPC {
		if ipc <= 0 || ipc > 4 {
			t.Errorf("core %d IPC = %f out of (0,4]", i, ipc)
		}
	}
	if res.Sched.Reads == 0 {
		t.Error("no reads reached memory")
	}
}

func TestSystemDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = HiRAPeriodicPolicy(2)
	mix := workload.Mixes(1, 8, 1)[0].Sources()
	run := func() CellResult {
		sys, err := NewSystem(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		return runCold(t, sys, 5000, 20000)
	}
	a, b := run(), run()
	for i := range a.IPC {
		if a.IPC[i] != b.IPC[i] {
			t.Fatalf("core %d IPC differs across identical runs", i)
		}
	}
	if a.Sched != b.Sched {
		t.Error("controller stats differ across identical runs")
	}
}

func TestNoRefreshBeatsBaseline(t *testing.T) {
	scores, err := RunPolicies(context.Background(), DefaultConfig(),
		[]RefreshPolicy{NoRefreshPolicy(), BaselinePolicy()}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if scores[0].WS <= scores[1].WS {
		t.Errorf("NoRefresh WS %.3f not above Baseline %.3f", scores[0].WS, scores[1].WS)
	}
}

func TestFig9ShapeAtHighCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	rows := quickFigure(t, FigureSpec{Kind: "fig9", Capacities: []int{8, 128}}).Fig9
	lo, hi := rows[0], rows[1]
	// Refresh hurts more at 128Gb than 8Gb for the baseline.
	if hi.NormNoRefresh["Baseline"] >= lo.NormNoRefresh["Baseline"] {
		t.Errorf("baseline degradation did not grow with capacity: %.3f vs %.3f",
			hi.NormNoRefresh["Baseline"], lo.NormNoRefresh["Baseline"])
	}
	// §8's headline: at 128Gb, HiRA improves over the baseline.
	if hi.NormBaseline["HiRA-2"] <= 1.0 {
		t.Errorf("HiRA-2 at 128Gb = %.3f of baseline, want > 1", hi.NormBaseline["HiRA-2"])
	}
	// Baseline costs roughly a quarter of performance at 128Gb (paper:
	// 26.3% degradation).
	if d := 1 - hi.NormNoRefresh["Baseline"]; d < 0.10 || d > 0.40 {
		t.Errorf("baseline degradation at 128Gb = %.1f%%, want ~20-26%%", d*100)
	}
}

func TestFig12ShapeAtLowNRH(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	rows := quickFigure(t, FigureSpec{Kind: "fig12", NRHs: []int{1024, 64}}).Fig12
	at1024, at64 := rows[0], rows[1]
	// PARA's overhead grows dramatically as NRH shrinks (§9.2).
	if at64.NormBaseline["PARA"] >= at1024.NormBaseline["PARA"] {
		t.Error("PARA overhead did not grow with RowHammer vulnerability")
	}
	if at64.NormBaseline["PARA"] > 0.5 {
		t.Errorf("PARA at NRH=64 = %.3f of baseline; paper collapses to ~0.04", at64.NormBaseline["PARA"])
	}
	// §9.2's headline: HiRA-4 speeds up PARA by multiples at NRH=64
	// (paper: 3.73x).
	if s := at64.NormPARA["HiRA-4"]; s < 2 {
		t.Errorf("HiRA-4 speedup over PARA at NRH=64 = %.2fx, want > 2x", s)
	}
	// At NRH=1024 the gain is modest, well under the NRH=64 gain.
	if at1024.NormPARA["HiRA-4"] >= at64.NormPARA["HiRA-4"] {
		t.Error("HiRA's PARA speedup should grow as NRH shrinks")
	}
}

func TestChannelSweepScalesPerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	rows := quickFigure(t, FigureSpec{Kind: "fig13", Xs: []int{1, 4}, Capacities: []int{32}}).Scale
	// More channels: higher absolute WS for both policies (§10.1).
	if rows[1].WS["Baseline"] <= rows[0].WS["Baseline"] {
		t.Errorf("baseline did not scale with channels: %v vs %v", rows[1].WS, rows[0].WS)
	}
	if rows[1].WS["HiRA-2"] <= rows[0].WS["HiRA-2"] {
		t.Errorf("HiRA-2 did not scale with channels: %v vs %v", rows[1].WS, rows[0].WS)
	}
}

func TestRankSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	rows := quickFigure(t, FigureSpec{Kind: "fig14", Xs: []int{1, 2}, Capacities: []int{8}}).Scale
	for _, r := range rows {
		for name, ws := range r.WS {
			if ws <= 0 {
				t.Errorf("ranks=%d %s WS = %f", r.X, name, ws)
			}
		}
	}
}

// TestCancelledSweepReturnsCtxErr asserts cancellation propagates
// through the sweep entry points: a pre-cancelled context does no work,
// and a context cancelled mid-sweep (here: after the first cell
// resolves) interrupts the in-flight simulations and surfaces ctx.Err().
func TestCancelledSweepReturnsCtxErr(t *testing.T) {
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	var stats EngineStats
	opts := quickOpts()
	opts.Stats = &stats
	fig9 := FigureSpec{Kind: "fig9", Capacities: []int{8}}
	if _, err := RunFigure(pre, opts, fig9); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Fig9 err = %v, want context.Canceled", err)
	}
	if stats.Simulated != 0 {
		t.Errorf("pre-cancelled sweep simulated %d cells", stats.Simulated)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts = quickOpts()
	opts.Progress = func(done, total int, _ EngineStats) {
		if done == 1 {
			cancel()
		}
	}
	if _, err := RunFigure(ctx, opts, fig9); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sweep cancelled Fig9 err = %v, want context.Canceled", err)
	}
}

func TestPolicyConstructors(t *testing.T) {
	if got := HiRAPeriodicPolicy(4).Name; got != "HiRA-4" {
		t.Errorf("name = %s", got)
	}
	if got := PARAHiRAPolicy(64, 2).Name; got != "HiRA-2" {
		t.Errorf("name = %s", got)
	}
	if p := PARAPolicy(128); p.NRH != 128 {
		t.Errorf("NRH = %d", p.NRH)
	}
}

func TestNewSystemValidation(t *testing.T) {
	cfg := DefaultConfig()
	mix := workload.Mixes(1, 4, 1)[0].Sources() // 4 workloads for 8 cores
	if _, err := NewSystem(cfg, mix); err == nil {
		t.Error("accepted mix/core mismatch")
	}
	for _, gbit := range []int{0, -8} {
		bad := DefaultConfig()
		bad.ChipCapacityGbit = gbit
		if _, err := NewSystem(bad, workload.Mixes(1, bad.Cores, 1)[0].Sources()); err == nil {
			t.Errorf("accepted a %d Gb chip capacity", gbit)
		}
	}
}
