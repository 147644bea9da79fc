package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hira/internal/sim"
)

// references holds the figure digests recorded at the commit that
// defined the benchmark, per seed and figure label. A seed without an
// entry is still gated: every repetition must agree with the first, and
// the server's payloads with the in-process oracle.
type references struct {
	Note  string                       `json:"note"`
	Seeds map[string]map[string]string `json:"seeds"`
}

func loadReferences(path string) (*references, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading references: %w", err)
	}
	var refs references
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &refs, nil
}

// seedNote says whether the seed's figures were checked against
// recorded digests.
func (refs *references) seedNote(seed uint64) string {
	if _, ok := refs.Seeds[strconv.FormatUint(seed, 10)]; ok {
		return fmt.Sprintf("figures checked against the digests recorded for seed %d", seed)
	}
	return fmt.Sprintf("no recorded digests for seed %d: figures checked for agreement across repetitions and with the in-process oracle only", seed)
}

// digest hashes a figure's rows. The engine_stats envelope is zeroed
// first: it reports how cells were resolved (cold, resumed, cached),
// which legitimately differs between runs of the same figure.
func digest(res *sim.FigureResult) string {
	c := *res
	c.Stats = sim.EngineStats{}
	data, err := json.Marshal(c)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}

// gate checks each produced figure against the recorded digest for the
// seed and against every earlier figure with the same label in the run.
// Safe for concurrent use.
type gate struct {
	recorded map[string]string
	mu       sync.Mutex
	seen     map[string]string
}

func newGate(refs *references, seed uint64) *gate {
	return &gate{recorded: refs.Seeds[strconv.FormatUint(seed, 10)], seen: map[string]string{}}
}

// check returns an error wrapping errMismatch when res disagrees with
// the reference for label.
func (g *gate) check(label string, res *sim.FigureResult) error {
	d := digest(res)
	if want, ok := g.recorded[label]; ok && d != want {
		return fmt.Errorf("%w: %s digest %s, recorded %s", errMismatch, label, d, want)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.seen[label]; ok && d != prev {
		return fmt.Errorf("%w: %s digest %s, earlier in this run %s", errMismatch, label, d, prev)
	}
	g.seen[label] = d
	return nil
}

// Figure labels, one per figure a workload produces.
const (
	labelFig9       = "sweep/fig9"
	labelFig12      = "sweep/fig12"
	labelAttackBase = "attack/60k"
	labelAttackExt  = "attack/120k"
	labelServerCold = "server/fig9-40k"
	labelServerExt  = "server/fig9-70k"
)

// referenceFigures computes every figure the workloads produce for one
// seed, each on a fresh engine without checkpoints: the cold
// straight-through path is the oracle the resumed and cached paths must
// match.
func referenceFigures(ctx context.Context, in inputs) (map[string]string, error) {
	cold := func() *sim.Engine { return sim.NewEngine(sim.EngineConfig{Parallelism: benchParallelism}) }
	out := map[string]string{}
	for _, f := range []struct {
		label string
		kind  string
		opts  sim.Options
		grid  []int
	}{
		{labelFig9, "fig9", in.sweepOptions(), fig9Caps},
		{labelFig12, "fig12", in.sweepOptions(), fig12NRHs},
		{labelServerCold, "fig9", in.serverOptions(false), fig9Caps},
		{labelServerExt, "fig9", in.serverOptions(true), fig9Caps},
	} {
		res, err := cold().Figure(ctx, f.kind, f.opts, nil, f.grid)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.label, err)
		}
		out[f.label] = digest(res)
	}
	for _, ext := range []bool{false, true} {
		rows, err := cold().AttackSweep(ctx, in.attackOptions(ext), attackKinds, attackNRHs)
		if err != nil {
			return nil, fmt.Errorf("attack sweep: %w", err)
		}
		label := labelAttackBase
		if ext {
			label = labelAttackExt
		}
		out[label] = digest(&sim.FigureResult{Kind: "attack", Attack: rows})
	}
	return out, nil
}

// recordReferences writes the digests of every listed seed to path.
func recordReferences(path, seedList string) error {
	seeds, err := parseSeeds(seedList)
	if err != nil {
		return err
	}
	refs := references{
		Note: "Figure digests (sha256 of the figure JSON with engine_stats zeroed, first 16 bytes) " +
			"recorded from cold straight-through runs; regenerate only when a change is meant to alter figures.",
		Seeds: map[string]map[string]string{},
	}
	for _, s := range seeds {
		in, err := makeInputs(s)
		if err != nil {
			return err
		}
		d, err := referenceFigures(context.Background(), in)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		refs.Seeds[strconv.FormatUint(s, 10)] = d
		fmt.Fprintf(os.Stderr, "recorded seed %d\n", s)
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseSeeds parses "1,2,5-9" into a sorted seed list.
func parseSeeds(list string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(strings.TrimSpace(part), "-")
		a, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseUint(hi, 10, 64); err != nil || b < a {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
		}
		for s := a; s <= b; s++ {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
