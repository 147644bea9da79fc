// Package telemetry is the repo's dependency-free observability layer:
// a metrics registry (counters, gauges, histograms — all with atomic
// hot paths) rendered in the Prometheus text exposition format, and a
// per-job trace recorder (trace.go) that captures span timelines
// exportable as JSON or Chrome trace-event files.
//
// The package deliberately has no third-party dependencies and no
// global state: every Server owns its own Registry, and instruments are
// plain structs whose methods are safe on nil receivers, so layers can
// hold instrument fields unconditionally and pay a single predictable
// branch when telemetry is disabled. Instrument update paths never take
// the registry lock — counters are one atomic add — so instrumented hot
// paths (per-cell, never per-tick) stay contention-free.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric label pair, fixed at registration: the registry
// renders labeled series as separate instruments of one family, which
// keeps the update path a single atomic op (no per-observation label
// hashing).
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing metric. The zero value is
// usable; methods on a nil Counter are no-ops, so uninstrumented code
// paths need no conditional wiring.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, stored as float64 bits.
// Methods on a nil Gauge are no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a cumulative-bucket distribution with fixed upper
// bounds (an implicit +Inf bucket is appended). Observe is a linear
// bucket scan plus two atomic ops — histograms here have ~a dozen
// buckets, where a scan beats binary search. Methods on nil are no-ops.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf excluded
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DefSecondsBuckets is the default histogram bucketing for durations in
// seconds: microseconds through tens of seconds, the range a cell
// simulation or a job occupies.
func DefSecondsBuckets() []float64 {
	return []float64{1e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
}

// metricKind is the Prometheus family type.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one registered instrument (one label set of one family).
type series struct {
	name   string // family name
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // func-backed counter/gauge; overrides c/g
}

// family groups the series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds instruments and renders them in the Prometheus text
// exposition format. Construct with NewRegistry; methods on a nil
// Registry return nil instruments (whose methods are no-ops), so a
// layer can be wired unconditionally and instrumented only when its
// caller supplies a registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	start    time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), start: time.Now()}
}

// register adds a series, panicking on programmer errors (invalid
// names, duplicate label sets, kind conflicts) exactly like expvar —
// metric registration happens once at construction, never on request
// paths.
func (r *Registry) register(name, help string, kind metricKind, s *series) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range s.labels {
		if !validLabelName(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l.Key, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	key := renderLabels(s.labels)
	for _, old := range f.series {
		if renderLabels(old.labels) == key {
			panic(fmt.Sprintf("telemetry: duplicate registration of %s%s", name, key))
		}
	}
	s.name = name
	f.series = append(f.series, s)
}

// Counter registers and returns a counter. A nil registry returns nil
// (a no-op instrument).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, help, kindCounter, &series{labels: labels, c: c})
	return c
}

// Gauge registers and returns a gauge (nil on a nil registry).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(name, help, kindGauge, &series{labels: labels, g: g})
	return g
}

// Histogram registers and returns a histogram over the given ascending
// upper bounds (+Inf is implicit; nil bounds take DefSecondsBuckets).
// Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefSecondsBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
	r.register(name, help, kindHistogram, &series{labels: labels, h: h})
	return h
}

// CounterFunc registers a counter whose value is read at scrape time.
// Use it to expose an existing monotone tally (engine stats, snapshot
// store stats) without double-counting or touching its hot path.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounter, &series{labels: labels, fn: fn})
}

// GaugeFunc registers a gauge sampled at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, kindGauge, &series{labels: labels, fn: fn})
}

// RegisterProcessMetrics adds coarse process-health gauges (goroutines,
// heap bytes, uptime) so a scrape of a hira-server is self-contained.
func (r *Registry) RegisterProcessMetrics() {
	if r == nil {
		return
	}
	r.GaugeFunc("hira_process_goroutines", "Live goroutines in the server process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("hira_process_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	r.GaugeFunc("hira_process_uptime_seconds", "Seconds since the telemetry registry was created.",
		func() float64 { return time.Since(r.start).Seconds() })
}

// WritePrometheus renders every family in the text exposition format,
// families sorted by name, series in registration order. Func-backed
// values are sampled during the call.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			renderSeries(&b, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns the GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

func renderSeries(b *strings.Builder, s *series) {
	switch {
	case s.h != nil:
		cum := uint64(0)
		for i := range s.h.buckets {
			cum += s.h.buckets[i].Load()
			le := "+Inf"
			if i < len(s.h.bounds) {
				le = formatFloat(s.h.bounds[i])
			}
			labels := append(append([]Label{}, s.labels...), Label{"le", le})
			fmt.Fprintf(b, "%s_bucket%s %d\n", s.name, renderLabels(labels), cum)
		}
		fmt.Fprintf(b, "%s_sum%s %s\n", s.name, renderLabels(s.labels), formatFloat(s.h.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", s.name, renderLabels(s.labels), s.h.Count())
	case s.fn != nil:
		fmt.Fprintf(b, "%s%s %s\n", s.name, renderLabels(s.labels), formatFloat(s.fn()))
	case s.c != nil:
		fmt.Fprintf(b, "%s%s %d\n", s.name, renderLabels(s.labels), s.c.Value())
	case s.g != nil:
		fmt.Fprintf(b, "%s%s %s\n", s.name, renderLabels(s.labels), formatFloat(s.g.Value()))
	}
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	if name == "" || name == "le" {
		return false // le is reserved for histogram buckets
	}
	return validMetricName(name) && !strings.Contains(name, ":")
}
