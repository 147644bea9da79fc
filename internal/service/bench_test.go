package service

import (
	"context"
	"testing"
)

// BenchmarkServerWarmJob measures the warm HTTP rung of the benchmark
// ladder: an in-process server (net/http/httptest) answers one cold
// Fig. 9 job, then b.N resubmissions of it through Client.Run — submit,
// queue, run, the SSE stream to its last event, and the result decode —
// each answered entirely from the engine's cache. Server and client
// share the process, so allocs/op counts both sides of the wire. Past
// 256 jobs (retainJobs) every submission also runs job-table
// eviction, so CI runs it at 2000x. A warm job that simulates a cell
// fails the benchmark.
func BenchmarkServerWarmJob(b *testing.B) {
	ctx := context.Background()
	_, client := newTestServer(b, Config{Workers: 1})
	spec := testSpec()
	if _, err := client.Run(ctx, spec, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := client.Run(ctx, spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		if job.State != StateDone || job.Stats == nil || job.Stats.Simulated != 0 {
			b.Fatalf("warm job %s: state %s, stats %+v", job.ID, job.State, job.Stats)
		}
	}
}
