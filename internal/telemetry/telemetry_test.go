package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(3)
	g.Inc()
	g.Add(-2)
	if g.Value() != 2 {
		t.Fatalf("gauge = %g, want 2", g.Value())
	}
	// Nil instruments (disabled telemetry) must be no-ops, not panics.
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	nc.Inc()
	nc.Add(7)
	ng.Set(1)
	ng.Dec()
	nh.Observe(1)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 {
		t.Fatal("nil instruments reported values")
	}
	var nilReg *Registry
	if nilReg.Counter("x_total", "") != nil || nilReg.Gauge("x", "") != nil {
		t.Fatal("nil registry returned live instruments")
	}
	if err := nilReg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 55.65; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Buckets are cumulative; 0.1 is inclusive (le semantics).
	for _, line := range []string{
		`test_seconds_bucket{le="0.1"} 2`,
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		`test_seconds_count 5`,
		"# TYPE test_seconds histogram",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("rendering missing %q in:\n%s", line, out)
		}
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last family").Add(3)
	a := r.Counter("aa_total", "first family", Label{"outcome", "hit"})
	r.Counter("aa_total", "first family", Label{"outcome", "miss"}).Add(2)
	a.Add(9)
	r.GaugeFunc("mid_gauge", "sampled", func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_total first family
# TYPE aa_total counter
aa_total{outcome="hit"} 9
aa_total{outcome="miss"} 2
# HELP mid_gauge sampled
# TYPE mid_gauge gauge
mid_gauge 1.5
# HELP zz_total last family
# TYPE zz_total counter
zz_total 3
`
	if b.String() != want {
		t.Fatalf("rendering mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
	if len(r.families) != 3 || r.families["aa_total"].kind != "counter" || r.families["mid_gauge"].kind != "gauge" {
		t.Fatalf("families = %v", r.families)
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("dup_total", "")
	mustPanic("duplicate", func() { r.Counter("dup_total", "") })
	mustPanic("kind conflict", func() { r.Gauge("dup_total", "") })
	mustPanic("bad name", func() { r.Counter("9bad", "") })
	mustPanic("bad label", func() { r.Counter("ok_total", "", Label{"le", "x"}) })
	mustPanic("bad bounds", func() { r.Histogram("h", "", []float64{1, 1}) })
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	g := r.Gauge("conc_gauge", "")
	h := r.Histogram("conc_seconds", "", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.01)
			}
		}()
	}
	// Scrape concurrently with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.WritePrometheus(&strings.Builder{})
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 || g.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%d g=%g h=%d", c.Value(), g.Value(), h.Count())
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("j1", 0)
	ctx := WithTrace(context.Background(), tr)
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context carried a trace")
	}
	if FromContext(ctx) != tr {
		t.Fatal("context lost the trace")
	}

	sp := StartSpan(ctx, "simulate", "cell-a")
	sp.SetAttr("ticks", 123)
	sp.End()
	tr.AddSpan("queued", "", tr.start, tr.start.Add(5*time.Millisecond), nil)

	// A context without a trace yields nil spans that are no-ops.
	none := StartSpan(context.Background(), "x", "")
	none.SetAttr("k", 1)
	none.End()

	v := tr.Snapshot()
	if v.Scope != "j1" || len(v.Spans) != 2 {
		t.Fatalf("snapshot = %+v", v)
	}
	// Sorted by start: the retroactive queued span starts at 0.
	if v.Spans[0].Name != "queued" || v.Spans[0].StartNS != 0 || v.Spans[0].DurNS != 5e6 {
		t.Fatalf("queued span = %+v", v.Spans[0])
	}
	if v.Spans[1].Name != "simulate" || v.Spans[1].Scope != "cell-a" || v.Spans[1].Attrs["ticks"] != 123 {
		t.Fatalf("simulate span = %+v", v.Spans[1])
	}
}

func TestTraceBound(t *testing.T) {
	tr := NewTrace("j", 3)
	for i := 0; i < 5; i++ {
		tr.AddSpan("s", "", tr.start, tr.start, nil)
	}
	n, dropped := tr.SpanCount()
	if n != 3 || dropped != 2 {
		t.Fatalf("bound not enforced: %d recorded, %d dropped", n, dropped)
	}
	if v := tr.Snapshot(); v.DroppedSpans != 2 {
		t.Fatalf("snapshot dropped = %d", v.DroppedSpans)
	}
}

func TestTraceChromeExport(t *testing.T) {
	tr := NewTrace("j", 0)
	base := tr.start
	// Two overlapping spans need two lanes; a third after both fits lane 0.
	tr.AddSpan("a", "cell-1", base, base.Add(10*time.Millisecond), nil)
	tr.AddSpan("b", "cell-2", base.Add(5*time.Millisecond), base.Add(15*time.Millisecond), nil)
	tr.AddSpan("c", "cell-3", base.Add(20*time.Millisecond), base.Add(25*time.Millisecond),
		map[string]any{"ticks": 7})

	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("chrome export is not JSON: %v\n%s", err, b.String())
	}
	if len(out.TraceEvents) != 3 {
		t.Fatalf("events = %d", len(out.TraceEvents))
	}
	byName := map[string]int{}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q phase %q", ev.Name, ev.Ph)
		}
		byName[ev.Name] = ev.TID
	}
	if byName["a"] == byName["b"] {
		t.Fatal("overlapping spans share a lane")
	}
	if byName["c"] != byName["a"] {
		t.Fatalf("non-overlapping span did not reuse lane 0: %v", byName)
	}
	for _, ev := range out.TraceEvents {
		if ev.Name == "c" {
			if ev.Args["ticks"] != 7.0 || ev.Args["scope"] != "cell-3" {
				t.Fatalf("args = %v", ev.Args)
			}
		}
	}
}

func TestTraceJSONExport(t *testing.T) {
	tr := NewTrace("j9", 0)
	tr.AddSpan("simulate", "cell", tr.start, tr.start.Add(time.Millisecond), map[string]any{"from": 0})
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var v View
	if err := json.Unmarshal([]byte(b.String()), &v); err != nil {
		t.Fatal(err)
	}
	if v.Scope != "j9" || len(v.Spans) != 1 || v.Spans[0].DurNS != 1e6 {
		t.Fatalf("round-trip = %+v", v)
	}
}
