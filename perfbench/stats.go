package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e3 }

// span is one interval the benchmark recorded around a call into the
// program, offsets in nanoseconds since the log started. Parent is the
// index of the enclosing span, -1 at the top level.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory; they are written out
// when the run ends. A nil log records nothing, so untraced code paths
// call it unconditionally.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// start opens a span and returns its index (-1 on a nil log).
func (l *spanLog) start(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Parent: parent, StartNS: time.Since(l.t0).Nanoseconds()})
	return len(l.spans) - 1
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].EndNS = time.Since(l.t0).Nanoseconds()
}

// write saves the log as JSON under dir, best effort: the spans are a
// by-product for inspection, not an input to any metric.
func (l *spanLog) write(dir, name string) {
	if l == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	l.mu.Lock()
	data, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err == nil {
		_ = os.WriteFile(filepath.Join(dir, name), data, 0o644) // best effort, see above
	}
}

// rssSampler tracks the peak of the Go runtime's resident memory over
// an interval: memory it has mapped read-write minus what it has
// released to the OS, sampled every millisecond. Unlike the process's
// lifetime high-water mark, it gives one peak per repetition.
type rssSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	read := func() {
		metrics.Read(samples)
		if v := samples[0].Value.Uint64() - samples[1].Value.Uint64(); v > s.peak {
			s.peak = v
		}
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-s.stop:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stopMB ends the sampling and returns the peak in MB.
func (s *rssSampler) stopMB() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) / (1 << 20)
}
