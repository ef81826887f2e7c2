// Command simref builds the benchmark's accuracy references from
// scratch. From the repository root:
//
//	go run ./simbench/cmd/simref              (inside simbench: go run ./cmd/simref --out refs)
//
// It first validates ExactSim at each workload's reference ε against a
// dense SimRank power iteration (bench.DenseSimRank) on a small graph
// from the same generator, then uses that ExactSim setting — with a seed
// the served answers never use — as the ground truth for the checked
// sources of each workload graph. For the churn workload it replays the
// fixed edit schedule to reach each checked epoch's graph.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/simbench/bench"
)

// refSeed seeds the reference ExactSim runs; it differs from the served
// queriers' seed so a reference never shares their random walks.
const refSeed = 1001

func main() {
	out := flag.String("out", "simbench/refs", "directory to write the reference files to")
	flag.Parse()
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, "simref:", err)
		os.Exit(1)
	}
}

func exactsimAt(g *exactsim.Graph, eps float64) (exactsim.Querier, error) {
	return exactsim.NewQuerier("exactsim", g, exactsim.WithEpsilon(eps), exactsim.WithSeed(refSeed))
}

// validate checks ExactSim at eps against the dense power iteration on
// g for a handful of sources.
func validate(ctx context.Context, name string, g *exactsim.Graph, eps float64) error {
	truth := bench.DenseSimRank(g, exactsim.DefaultC, 60)
	q, err := exactsimAt(g, eps)
	if err != nil {
		return err
	}
	var worst float64
	for i := 0; i < 8; i++ {
		src := exactsim.NodeID((i*977 + 3) % g.N())
		res, err := q.SingleSource(ctx, src)
		if err != nil {
			return err
		}
		for j, v := range res.Scores {
			worst = math.Max(worst, math.Abs(v-truth[src][j]))
		}
	}
	fmt.Fprintf(os.Stderr, "validate %s (n=%d): ExactSim ε=%g max error %.3g against the power iteration\n",
		name, g.N(), eps, worst)
	if worst > eps {
		return fmt.Errorf("%s: ExactSim at ε=%g is off by %.3g against the power iteration", name, eps, worst)
	}
	return nil
}

func build(ctx context.Context, g *exactsim.Graph, eps float64, keys []bench.RefKey, rs *bench.RefSet) error {
	q, err := exactsimAt(g, eps)
	if err != nil {
		return err
	}
	for _, k := range keys {
		start := time.Now()
		res, err := q.SingleSource(ctx, k.Source)
		if err != nil {
			return err
		}
		rs.Vecs[k] = res.Scores
		fmt.Fprintf(os.Stderr, "  %s epoch %d source %d: %v\n", rs.Workload, k.Epoch, k.Source, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func run(out string) error {
	ctx := context.Background()
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	smallRMAT := exactsim.GenerateRMAT(10, 1<<13, bench.GraphSeed)
	smallBA := exactsim.GenerateBarabasiAlbert(1000, 4, bench.GraphSeed)
	type job struct {
		name   string
		refEps float64
		small  *exactsim.Graph
		make   func(rs *bench.RefSet) ([]bench.RefKey, error)
	}
	jobs := []job{
		{bench.Tight, bench.TightRefEps, smallRMAT, func(rs *bench.RefSet) ([]bench.RefKey, error) {
			g := bench.RMAT16()
			rs.GraphChecksum = exactsim.GraphChecksum(g)
			var keys []bench.RefKey
			for _, s := range bench.TightPool(g, 1)[:bench.TightChecked] {
				keys = append(keys, bench.RefKey{Source: s})
			}
			return keys, build(ctx, g, rs.RefEps, keys, rs)
		}},
		{bench.Fleet, bench.FleetRefEps, smallBA, func(rs *bench.RefSet) ([]bench.RefKey, error) {
			g := bench.BA20k()
			rs.GraphChecksum = exactsim.GraphChecksum(g)
			var keys []bench.RefKey
			for _, s := range bench.TopInDegree(g, bench.FleetChecked) {
				keys = append(keys, bench.RefKey{Source: s})
			}
			return keys, build(ctx, g, rs.RefEps, keys, rs)
		}},
		{bench.Churn, bench.ChurnRefEps, smallRMAT, func(rs *bench.RefSet) ([]bench.RefKey, error) {
			g := bench.RMAT16()
			rs.GraphChecksum = exactsim.GraphChecksum(g)
			rs.ScheduleDigest = bench.ChurnRefDigest(g)
			epochs := bench.ChurnRefEpochs()
			pools, edits := bench.ChurnSchedule(g, epochs)
			checked := map[int]bool{}
			for _, e := range bench.ChurnCheckedEpochs(epochs) {
				checked[e] = true
			}
			d := exactsim.DynamicFrom(g)
			var all []bench.RefKey
			for e := 0; e < epochs; e++ {
				if checked[e] {
					var keys []bench.RefKey
					for _, s := range pools[e][:bench.ChurnChecked] {
						keys = append(keys, bench.RefKey{Epoch: e, Source: s})
					}
					if err := build(ctx, d.Snapshot(), rs.RefEps, keys, rs); err != nil {
						return nil, err
					}
					all = append(all, keys...)
				}
				if e < len(edits) {
					bench.ApplyBatch(d, edits[e])
				}
			}
			return all, nil
		}},
	}
	for _, j := range jobs {
		if err := validate(ctx, j.name, j.small, j.refEps); err != nil {
			return err
		}
		rs := &bench.RefSet{Workload: j.name, RefEps: j.refEps, Vecs: map[bench.RefKey][]float64{}}
		keys, err := j.make(rs)
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		path := bench.RefPath(out, j.name)
		if err := bench.WriteRefs(path, rs, keys); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d vectors)\n", path, len(keys))
	}
	return nil
}
