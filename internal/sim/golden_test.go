package sim

// Golden-figure conformance suite: a reduced sweep of every figure kind
// is pinned as a JSON fixture in testdata/, so scheduler/engine refactors are
// diffed against known-good figure rows instead of only against
// themselves (the differential tests prove ref == opt, but both could
// drift together; the fixtures catch that). Regenerate deliberately with
//
//	go test ./internal/sim -run TestGoldenFigures -update
//
// and review the fixture diff like any other code change.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure fixtures in testdata/")

// goldenOpts is the reduced sweep shape: small enough for CI (including
// the race job), large enough to exercise multiple mixes and policies.
func goldenOpts() Options {
	return Options{Workloads: 2, Cores: 4, Warmup: 2000, Measure: 6000, Seed: 1}
}

func TestGoldenFigures(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name   string
		kind   string
		xs     []int
		params []int
	}{
		// Reduced Fig. 9 grid: two capacities, all six periodic policies.
		{name: "golden_fig9", kind: "fig9", params: []int{2, 8}},
		// Reduced Fig. 13 grid: two channel counts at one capacity.
		{name: "golden_fig13", kind: "fig13", xs: []int{1, 2}, params: []int{8}},
		// Every other kind at a reduced grid, so each figure's points,
		// policies and row assembly are pinned.
		{name: "golden_fig12", kind: "fig12", params: []int{64, 1024}},
		{name: "golden_fig14", kind: "fig14", xs: []int{1, 2}, params: []int{8}},
		{name: "golden_fig15", kind: "fig15", xs: []int{1, 2}, params: []int{256}},
		{name: "golden_fig16", kind: "fig16", xs: []int{1, 2}, params: []int{256}},
		{name: "golden_attack", kind: "attack", params: []int{64}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got, err := Figure(ctx, c.kind, goldenOpts(), c.xs, c.params)
			if err != nil {
				t.Fatal(err)
			}
			// Engine stats depend on cache warmth, not on the figures;
			// they are not part of the golden contract.
			got.Stats = EngineStats{}

			path := filepath.Join("testdata", c.name+".json")
			fresh, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			fresh = append(fresh, '\n')
			if *updateGolden {
				if err := os.WriteFile(path, fresh, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to generate the fixture)", err)
			}
			var want FigureResult
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("fixture %s: %v", path, err)
			}
			// Go's JSON float encoding round-trips float64 exactly, so
			// the decoded fixture must equal the fresh rows bit for bit.
			if !reflect.DeepEqual(got, &want) {
				t.Fatalf("%s rows diverged from the golden fixture %s\n"+
					"got:  %+v\nwant: %+v\n"+
					"(if the change is intentional, regenerate with -update and review the diff)",
					c.kind, path, got, &want)
			}
			// Equal rows in different bytes mean the fixture predates a
			// change to the result's JSON shape: -update would rewrite
			// it, so it is stale.
			if !bytes.Equal(data, fresh) {
				t.Fatalf("fixture %s is stale: its rows match but its bytes differ from what -update writes "+
					"(regenerate with -update and review the diff)", path)
			}
		})
	}
}
