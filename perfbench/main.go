// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator's public API (or an in-process
// hira-server) for a fixed time, checks every figure it produced, and
// prints its metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end ones; with -trace 1 they are the
// per-layer ones of a separate traced run. See README.md.
//
// Run it through run.py, which builds it from source first:
//
//	python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value, printed in the summary
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations, failed operations, and the subset of
// failures that are output-gate mismatches (wrong figures).
type tally struct {
	attempted, failed, mismatched int
	problems                      []string
}

// op records one attempted operation; a non-nil err makes it a failure,
// and an err wrapping errMismatch also makes the run incorrect.
func (t *tally) op(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if errors.Is(err, errMismatch) {
		t.mismatched++
	}
	if len(t.problems) < 20 {
		t.problems = append(t.problems, err.Error())
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"sweep-cold":     sweepCold,
	"attack-extend":  attackExtend,
	"server-session": serverSession,
}

// run is the state one benchmark invocation threads through a workload.
type run struct {
	name    string
	seed    uint64
	budget  time.Duration
	traced  bool
	in      inputs
	refs    *references
	tally   tally
	metrics map[string]metric
	spans   *spanLog // nil outside the traced phase
}

// set records a metric with its sample count.
func (r *run) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	wl := flag.String("workload", "", "workload to run: sweep-cold, attack-extend or server-session")
	seed := flag.Uint64("seed", 1, "workload seed: the benchmark derives every input from it")
	seconds := flag.Int("seconds", 30, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	refPath := flag.String("references", "perfbench/reference.json", "recorded figure digests")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition listing the metrics each mode reports")
	record := flag.String("record", "", "record figure digests for -record-seeds into this file and exit")
	recordSeeds := flag.String("record-seeds", "", "comma-separated seeds or ranges (a-b) for -record")
	flag.Parse()

	if *record != "" {
		if err := recordReferences(*record, *recordSeeds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wl, *seconds, *trace)
		return 2
	}
	want, err := loadMetricSpec(*specPath, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	refs, err := loadReferences(*refPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	in, err := makeInputs(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &run{
		name: *wl, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, in: in, refs: refs, metrics: map[string]metric{},
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	errRate := float64(r.tally.failed) / float64(max(r.tally.attempted, 1))
	if r.traced {
		r.set("error_rate", errRate, "ratio", r.tally.attempted)
	}
	if err := checkMetrics(r.metrics, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return r.print(errRate)
}

// loadMetricSpec reads the metric names and units one mode must report
// from the benchmark definition: end_to_end untraced, per_layer traced.
func loadMetricSpec(path string, traced bool) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	want := map[string]string{}
	for _, e := range list {
		want[e.Name] = e.Unit
	}
	return want, nil
}

// checkMetrics verifies a run reports exactly the defined metrics, each
// in its defined unit.
func checkMetrics(got map[string]metric, want map[string]string) error {
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s is in %s, defined in %s", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not in the benchmark definition", name)
		}
	}
	return nil
}

// print writes the human-readable summary and the JSON result line. It
// returns a non-zero exit code when an output-gate check failed.
func (r *run) print(errRate float64) int {
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.metrics[k]
		fmt.Printf("%-32s %14.6g %-6s (n=%d)\n", k, m.Value, m.Unit, m.n)
	}
	if !r.traced {
		fmt.Printf("%-32s %14.6g %-6s (n=%d)\n", "error_rate", errRate, "ratio", r.tally.attempted)
	}
	if ref := r.refs.seedNote(r.seed); ref != "" {
		fmt.Println(ref)
	}
	for _, p := range r.tally.problems {
		fmt.Println("FAILED:", p)
	}
	rep := report{
		Correct:   r.tally.mismatched == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   r.metrics,
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 3
	}
	return 0
}

// errMismatch marks an output-gate failure.
var errMismatch = errors.New("output mismatch")
