// Command hira-client submits one experiment job to a hira-server,
// streams its progress, and prints the result JSON in the same encoding
// `hira-sim -json` emits for the same figure, so the two diff cleanly
// (row data always matches; the engine_stats block reflects how each
// run's cells were resolved).
//
// Examples:
//
//	hira-client -server http://localhost:8080 -exp fig9
//	hira-client -exp fig12 -nrhs 64,256 -workloads 8 -ticks 240000
//	hira-client -exp fig9 -traces t1.trace        (trace in the server's -traces dir)
//	hira-client -exp fig9 -workload-spec my.json  (full workloads object)
//	hira-client -exp area
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"hira/internal/service"
	"hira/internal/sim"
	"hira/internal/workload"
)

var (
	server            = flag.String("server", "http://localhost:8080", "hira-server base URL")
	exp               = flag.String("exp", "fig9", "job kind: "+strings.Join(append(sim.FigureKinds(), service.KindCharacterize, service.KindSecurity, service.KindArea), "|"))
	attacks           = flag.String("attacks", "", "comma-separated attacker presets for -exp attack (single,double,many,refsync,decoy; empty = all)")
	workloads         = flag.Int("workloads", 0, "mixes per sweep point (0 = server default)")
	cores             = flag.Int("cores", 0, "cores per mix (0 = server default)")
	ticks             = flag.Int("ticks", 0, "measured ticks per run (0 = server default)")
	warmup            = flag.Int("warmup", 0, "warmup ticks per run (0 = server default)")
	seed              = flag.Uint64("seed", 0, "workload seed (0 = server default)")
	traces            = flag.String("traces", "", "comma-separated trace file names in the server's trace directory, dealt round-robin across cores and mixes (hira-sim -trace's rule)")
	wlSpec            = flag.String("workload-spec", "", "JSON file with a workloads object (mixes/profiles/traces), sent inline")
	caps              = flag.String("capacities", "", "comma-separated chip capacities in Gbit (fig9/13/14)")
	nrhs              = flag.String("nrhs", "", "comma-separated RowHammer thresholds (fig12/15/16, attack)")
	xs                = flag.String("xs", "", "comma-separated channel/rank axis (fig13-16)")
	timeout           = flag.Float64("timeout", 0, "server-side wall-clock deadline for the job in seconds (0 = none)")
	forensics         = flag.Bool("forensics", false, "attach the RowHammer forensics ledger; fetch the report at /v1/jobs/{id}/forensics")
	forensicsR        = flag.Bool("forensics-recorder", false, "arm the DRAM command flight recorder (requires -forensics)")
	progress          = flag.Bool("progress", false, "print cell progress to stderr")
	cancelOnInterrupt = flag.Bool("cancel-on-interrupt", true, "Ctrl-C cancels the submitted job server-side")
)

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad grid value %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	flag.Parse()
	os.Exit(run())
}

// workloadsObject builds the spec's workloads block from -traces or
// -workload-spec. The returned core count (non-zero only for -traces)
// is the mix width the expansion assumed; the caller pins it into the
// spec's sim block so the request stays self-consistent even if the
// server's default core count ever changes.
func workloadsObject() (*service.WorkloadsSpec, int, error) {
	switch {
	case *traces != "" && *wlSpec != "":
		return nil, 0, fmt.Errorf("-traces and -workload-spec are mutually exclusive")
	case *traces != "":
		// Expand the trace list with the same round-robin deal hira-sim
		// uses for -trace (workload.RoundRobinNames shares the index rule
		// with RoundRobinMixes), so CLI and service sweeps over the same
		// traces produce identical engine cells. Generated names are
		// index-only ("t0", "t1", ...) — display labels, independent of
		// the file names; identity is the content digest.
		n, c := *workloads, *cores
		if n < 0 || c < 0 {
			return nil, 0, fmt.Errorf("-workloads and -cores must be positive")
		}
		d := sim.Options{Workloads: n, Cores: c}.WithDefaults()
		n, c = d.Workloads, d.Cores
		ws := &service.WorkloadsSpec{}
		var names []string
		for _, f := range strings.Split(*traces, ",") {
			name := fmt.Sprintf("t%d", len(names))
			ws.Traces = append(ws.Traces, service.TraceSpec{Name: name, File: strings.TrimSpace(f)})
			names = append(names, name)
		}
		ws.Mixes = workload.RoundRobinNames(names, n, c)
		return ws, c, nil
	case *wlSpec != "":
		data, err := os.ReadFile(*wlSpec)
		if err != nil {
			return nil, 0, err
		}
		ws := &service.WorkloadsSpec{}
		if err := json.Unmarshal(data, ws); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", *wlSpec, err)
		}
		return ws, 0, nil
	}
	return nil, 0, nil
}

func run() int {
	spec := service.JobSpec{Kind: *exp, TimeoutSeconds: *timeout}
	if *workloads != 0 || *cores != 0 || *ticks != 0 || *warmup != 0 || *seed != 0 || *forensics {
		spec.Sim = &service.SimSpec{
			Workloads: *workloads, Cores: *cores, Measure: *ticks, Warmup: *warmup, Seed: *seed,
			Forensics: *forensics, ForensicsRecorder: *forensicsR,
		}
	}
	ws, assumedCores, err := workloadsObject()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	spec.Workloads = ws
	if assumedCores != 0 {
		if spec.Sim == nil {
			spec.Sim = &service.SimSpec{}
		}
		spec.Sim.Cores = assumedCores
	}
	if spec.Capacities, err = parseInts(*caps); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if spec.NRHs, err = parseInts(*nrhs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if spec.Xs, err = parseInts(*xs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *attacks != "" {
		spec.Attacks = strings.Split(*attacks, ",")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	c := service.NewClient(*server)
	job, err := c.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	id := job.ID
	fmt.Fprintf(os.Stderr, "job %s %s\n", id, job.State)

	var onProgress func(p service.Progress)
	if *progress {
		onProgress = func(p service.Progress) {
			line := fmt.Sprintf("\rcells %d/%d", p.Done, p.Total)
			if hits := p.CacheHits + p.StoreHits; hits > 0 || p.Simulated > 0 {
				line += fmt.Sprintf(" (%d simulated, %d cached)", p.Simulated, hits)
			}
			if p.Resumed > 0 {
				line += fmt.Sprintf(", %d resumed sparing %d ticks", p.Resumed, p.ResumedTicks)
			}
			fmt.Fprint(os.Stderr, line)
		}
	}
	job, err = c.WaitProgress(ctx, id, onProgress)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		if ctx.Err() != nil && *cancelOnInterrupt {
			// Best-effort server-side cancel so the sweep stops
			// simulating. Release the signal handler first (a second
			// Ctrl-C then kills us) and bound the call, in case the
			// interrupt was prompted by a hung server.
			stop()
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if cerr := c.Cancel(cctx, id); cerr != nil {
				fmt.Fprintf(os.Stderr, "interrupted; cancel of job %s failed: %v\n", id, cerr)
			} else {
				fmt.Fprintf(os.Stderr, "interrupted; cancelled job %s\n", id)
			}
			return 1
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	switch job.State {
	case service.StateDone:
		// Re-indent to the exact bytes `hira-sim -json` prints, so the
		// two outputs diff cleanly.
		var buf bytes.Buffer
		if err := json.Indent(&buf, job.Result, "", "  "); err != nil {
			buf.Write(job.Result)
		}
		fmt.Println(buf.String())
		if job.Stats != nil {
			fmt.Fprintf(os.Stderr, "engine: %d cells (%d simulated, %d cache hits, %d store hits, %d deduped)\n",
				job.Stats.Submitted, job.Stats.Simulated, job.Stats.CacheHits,
				job.Stats.StoreHits, job.Stats.Deduped)
			if job.Stats.Resumed > 0 {
				fmt.Fprintf(os.Stderr, "resume: %d cells resumed from checkpoints, sparing %d simulation ticks\n",
					job.Stats.Resumed, job.Stats.ResumedTicks)
			}
		}
		if rep, err := c.Stats(ctx); err == nil && rep.Snapshots != nil {
			s := rep.Snapshots
			fmt.Fprintf(os.Stderr, "snapshots: %d hits, %d misses, %d saved, %d evicted (%d entries, %d bytes)\n",
				s.Hits, s.Misses, s.Saves, s.Evictions, s.Entries, s.Bytes)
		}
		return 0
	case service.StateCancelled:
		fmt.Fprintf(os.Stderr, "job %s cancelled\n", job.ID)
		return 1
	default:
		fmt.Fprintf(os.Stderr, "job %s failed: %s\n", job.ID, job.Error)
		return 1
	}
}
