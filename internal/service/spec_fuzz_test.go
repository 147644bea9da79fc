package service

// FuzzSpecValidate drives arbitrary bytes through the exact decode +
// validate path handleSubmit uses: decoding must never panic, and any
// spec that passes validation must already satisfy the service's
// resource envelope — grid bounds, workload-mix shape, and the total
// cost ceiling are re-asserted here independently, so a validator
// regression that silently admits an over-limit spec fails the fuzz
// property, not just a hand-written case.

import (
	"bytes"
	"encoding/json"
	"testing"

	"hira/internal/workload"
)

func FuzzSpecValidate(f *testing.F) {
	seeds := []string{
		`{"kind":"fig9"}`,
		`{"kind":"fig9","capacities":[2,8],"sim":{"workloads":2,"cores":4,"warmup":2000,"measure":6000}}`,
		`{"kind":"fig12","nrhs":[64,1024]}`,
		`{"kind":"fig13","capacities":[8],"xs":[1,2]}`,
		`{"kind":"policies","policies":[{"type":"baseline"},{"type":"para+hira","nrh":512,"slack":2}]}`,
		`{"kind":"policies","policies":[{"type":"baseline"}],"sim":{"cores":2},` +
			`"workloads":{"mixes":[["mcf","hot"]],"profiles":[{"name":"hot","mpki":50,"row_locality":0.1,"footprint_mb":8,"write_frac":0.5}]}}`,
		`{"kind":"fig9","sim":{"cores":1},"workloads":{"mixes":[["t1"]],"traces":[{"name":"t1","file":"t1.trace"}]}}`,
		`{"kind":"fig9","workloads":{"mixes":[["../evil"]],"traces":[{"name":"x","file":"../../etc/passwd"}]}}`,
		`{"kind":"characterize","charz":{"modules":["A0"]}}`,
		`{"kind":"area"}`,
		`{"kind":"fig9","capacities":[1,2,3,4,5,6,7,8,9,10],"sim":{"workloads":128,"measure":9000000}}`,
		`{"kind":"attack"}`,
		`{"kind":"attack","attacks":["double","decoy"],"nrhs":[64,128],"sim":{"cores":4,"measure":60000}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		// The spec was accepted: re-assert the envelope independently.
		o := spec.Sim.options().WithDefaults()
		// The oracle names the kinds and their grid sizes itself, so it
		// stays independent of sim's figure table.
		switch spec.Kind {
		case "fig9", "fig12", "fig13", "fig14", "fig15", "fig16", KindPolicies:
			if o.Warmup+o.Measure > maxTicks {
				t.Fatalf("accepted spec with %d ticks/run (limit %d)", o.Warmup+o.Measure, maxTicks)
			}
			if o.Cores > maxCores {
				t.Fatalf("accepted spec with %d cores (limit %d)", o.Cores, maxCores)
			}
			mixes := int64(o.Workloads)
			if w := spec.Workloads; w != nil {
				if len(w.Mixes) == 0 || len(w.Mixes) > maxWorkloads {
					t.Fatalf("accepted workloads object with %d mixes (limit %d)", len(w.Mixes), maxWorkloads)
				}
				mixes = int64(len(w.Mixes))
				for _, mix := range w.Mixes {
					if len(mix) != o.Cores {
						t.Fatalf("accepted mix of %d workloads for %d cores", len(mix), o.Cores)
					}
				}
				for _, ts := range w.Traces {
					if !workload.ValidName(ts.Name) || ts.File == "" ||
						bytes.ContainsAny([]byte(ts.File), "/\\") || ts.File == ".." {
						t.Fatalf("accepted unsafe trace reference %+v", ts)
					}
				}
				for _, ps := range w.Profiles {
					if err := ps.profile().Validate(); err != nil {
						t.Fatalf("accepted invalid inline profile: %v", err)
					}
				}
			} else if mixes > int64(maxWorkloads) {
				t.Fatalf("accepted spec with %d workloads (limit %d)", mixes, maxWorkloads)
			}
			// Cost ceiling, recomputed independently of validateCost:
			// points x policies x mixes x ticks. Grid lengths default to
			// the largest paper grid (7 points, 6 policies) when omitted,
			// matching the validator's own accounting conservatively.
			points := int64(1)
			policies := int64(6)
			grid := func(xs []int, def int) int64 {
				if xs == nil {
					return int64(def)
				}
				if len(xs) > maxGrid {
					t.Fatalf("accepted grid of %d entries (limit %d)", len(xs), maxGrid)
				}
				return int64(len(xs))
			}
			switch spec.Kind {
			case "fig9":
				points = grid(spec.Capacities, 7)
			case "fig12":
				points = grid(spec.NRHs, 5)
			case "fig13", "fig14":
				points, policies = grid(spec.Capacities, 3)*grid(spec.Xs, 4), 3
			case "fig15", "fig16":
				points, policies = grid(spec.NRHs, 3)*grid(spec.Xs, 4), 3
			case KindPolicies:
				policies = int64(len(spec.Policies))
				if policies == 0 || policies > int64(maxPolicies) {
					t.Fatalf("accepted %d policies (limit %d)", policies, maxPolicies)
				}
			}
			if cost := points * policies * mixes * int64(o.Warmup+o.Measure); cost > maxTotalTicks {
				t.Fatalf("accepted spec with estimated cost %d ticks (limit %d)", cost, maxTotalTicks)
			}
		case "attack":
			if o.Warmup+o.Measure > maxTicks || o.Cores > maxCores {
				t.Fatalf("accepted attack spec with %d ticks/run and %d cores (limits %d, %d)",
					o.Warmup+o.Measure, o.Cores, maxTicks, maxCores)
			}
			// The attack grid builds its own mixes: one per point.
			if spec.Workloads != nil {
				t.Fatalf("accepted workloads object on kind attack")
			}
			attacks, nrhs := int64(5), int64(2)
			if spec.Attacks != nil {
				attacks = int64(len(spec.Attacks))
			}
			if spec.NRHs != nil {
				nrhs = int64(len(spec.NRHs))
			}
			if attacks == 0 || attacks > int64(maxGrid) || nrhs == 0 || nrhs > int64(maxGrid) {
				t.Fatalf("accepted %d attacks x %d nrhs (limit %d per axis)", attacks, nrhs, maxGrid)
			}
			// 4 policies: Baseline, PARA, Graphene, RFM.
			if cost := attacks * nrhs * 4 * int64(o.Warmup+o.Measure); cost > maxTotalTicks {
				t.Fatalf("accepted attack spec with estimated cost %d ticks (limit %d)", cost, maxTotalTicks)
			}
		case KindCharacterize, KindSecurity, KindArea:
			if spec.Workloads != nil {
				t.Fatalf("accepted workloads object on kind %s", spec.Kind)
			}
		default:
			t.Fatalf("accepted unknown kind %q", spec.Kind)
		}
	})
}
