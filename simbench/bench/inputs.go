// Package bench is the serving-stack benchmark: seeded workload inputs,
// the closed-loop load generator, the answer checks, the accuracy references and
// the tier-ladder trace. cmd/simbench runs it; cmd/simref builds the
// references it checks against.
package bench

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"

	exactsim "github.com/exactsim/exactsim"
)

// Workload names, as BENCHMARK.json lists them.
const (
	Tight = "exact-tight-rmat16"
	Fleet = "fleet-zipf-ba20k"
	Churn = "churn-auto-rmat16"
)

// Workloads lists every workload in the order the repeat mode runs them.
var Workloads = []string{Tight, Fleet, Churn}

// Fixed seeds. The graphs, the source pools and the churn edit schedule
// do not depend on --seed: the references are built once for them, and
// the churn workload's expected failures must be the same on every run.
// --seed drives the request order (all workloads) and the zipf draw, the
// cold sources and the k mix (fleet).
const (
	GraphSeed    = 1
	QuerierSeed  = 7
	PoolSeed     = 11
	ScheduleSeed = 13
)

// Workload parameters.
const (
	TightEps     = 0.005
	TightRefEps  = 5e-4
	TightK       = 10
	TightRate    = 3.2 // pool sources per --seconds
	TightChecked = 6

	FleetEps      = 0.01 // the service default (algo.DefaultEpsilon)
	FleetRefEps   = 1e-3
	FleetHubs     = 32  // warmed in set-up; the zipf universe
	FleetZipfS    = 1.1 // zipf exponent over the hubs
	FleetCold     = 16  // fixed non-hub sources, each asked twice
	FleetRate     = 85  // requests per --seconds
	FleetChecked  = 8   // the most popular hubs
	FleetClients  = 2   // closed-loop clients (= nproc on the reference machine)
	FleetBackends = 2   // httpapi replicas behind the router

	ChurnEps         = 0.05
	ChurnRefEps      = 1e-3
	ChurnK           = 10
	ChurnPerEpoch    = 24   // queries between two publishes
	ChurnBatch       = 2000 // edge inserts per publish
	ChurnEpochRate   = 0.8  // epochs per --seconds
	ChurnCheckEvery  = 4    // every 4th epoch (0, 4, 8, 12) is checked
	ChurnCheckEpochs = 4
	ChurnChecked     = 3 // checked sources per checked epoch
)

// FleetKs is the k mix of the fleet workload.
var FleetKs = []int{5, 10, 50}

// RMAT16 is the graph of the tight and churn workloads: RMAT(2^16 nodes,
// 2^19 edge draws, ≈494k distinct edges) with web-crawl quadrant weights.
func RMAT16() *exactsim.Graph { return exactsim.GenerateRMAT(16, 1<<19, GraphSeed) }

// BA20k is the fleet workload's graph: Barabási–Albert(20000, 4).
func BA20k() *exactsim.Graph { return exactsim.GenerateBarabasiAlbert(20000, 4, GraphSeed) }

// Req is one query of a workload's request sequence.
type Req struct {
	Source exactsim.NodeID
	K      int
	// Epoch is the 0-based graph generation the query runs on (churn);
	// the Service reports it as GraphEpoch = Epoch+1.
	Epoch int
}

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// drawSources draws n distinct nodes with in-degree > 0 from r. The draw
// is a prefix-stable stream: a longer draw extends a shorter one.
func drawSources(g *exactsim.Graph, r *rand.Rand, n int, exclude map[exactsim.NodeID]bool) []exactsim.NodeID {
	seen := make(map[exactsim.NodeID]bool, n)
	out := make([]exactsim.NodeID, 0, n)
	for len(out) < n {
		v := exactsim.NodeID(r.IntN(g.N()))
		if seen[v] || exclude[v] || g.InDegree(v) == 0 {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

func atLeast(x float64, min int) int {
	n := int(math.Ceil(x))
	if n < min {
		return min
	}
	return n
}

// TightInputs is the exact-tight workload's input: a fixed pool of
// distinct sources (the first TightChecked are checked against the
// reference) queried once each in seeded order.
type TightInputs struct {
	Pool    []exactsim.NodeID
	Checked []exactsim.NodeID
	Seq     []Req
}

// TightPool is the fixed source pool for a run of the given length.
func TightPool(g *exactsim.Graph, seconds int) []exactsim.NodeID {
	return drawSources(g, newRand(PoolSeed, 1), atLeast(TightRate*float64(seconds), 2*TightChecked), nil)
}

// TightPlan builds the exact-tight request sequence. The pool is fixed so
// every seed does the same kernel work; per-source cost varies 8× on
// RMAT16, so a seeded draw of 64 sources would move throughput by
// roughly ten percent between seeds.
func TightPlan(g *exactsim.Graph, seed uint64, seconds int) TightInputs {
	pool := TightPool(g, seconds)
	order := slices.Clone(pool)
	r := newRand(seed, 2)
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	seq := make([]Req, len(order))
	for i, s := range order {
		seq[i] = Req{Source: s, K: TightK}
	}
	return TightInputs{Pool: pool, Checked: pool[:TightChecked], Seq: seq}
}

// FleetInputs is the fleet workload's input.
type FleetInputs struct {
	Hubs    []exactsim.NodeID // by in-degree, the Warm set and zipf universe
	Cold    []exactsim.NodeID
	Checked []exactsim.NodeID
	Seq     []Req
}

// TopInDegree returns the k highest in-degree nodes, ties by lower id —
// the same hubs a Service Warm with TopDegree k selects.
func TopInDegree(g *exactsim.Graph, k int) []exactsim.NodeID {
	deg := make([]float64, g.N())
	for v := range deg {
		deg[v] = float64(g.InDegree(exactsim.NodeID(v)))
	}
	out := make([]exactsim.NodeID, 0, k)
	for _, e := range exactsim.TopKOf(deg, k, -1) {
		out = append(out, e.Idx)
	}
	return out
}

// FleetPlan builds the fleet request sequence: zipf(FleetZipfS) over the
// warmed hubs, plus FleetCold fixed cold sources each asked twice at
// seeded positions, with k drawn from FleetKs. The first ask of a cold
// source is a cache miss: every seed pays the same FleetCold kernel
// computations, and with more than ten of them the tail percentile lands
// on a miss instead of on whichever host stall hit the hits.
func FleetPlan(g *exactsim.Graph, seed uint64, seconds int) FleetInputs {
	hubs := TopInDegree(g, FleetHubs)
	isHub := make(map[exactsim.NodeID]bool, len(hubs))
	for _, h := range hubs {
		isHub[h] = true
	}
	cold := drawSources(g, newRand(PoolSeed, 3), FleetCold, isHub)
	r := newRand(seed, 3)
	n := atLeast(FleetRate*float64(seconds), 4*FleetCold)
	cdf := make([]float64, len(hubs))
	var sum float64
	for i := range hubs {
		sum += math.Pow(float64(i+1), -FleetZipfS)
		cdf[i] = sum
	}
	seq := make([]Req, n)
	for i := range seq {
		u := r.Float64() * sum
		rank, _ := slices.BinarySearch(cdf, u)
		rank = min(rank, len(hubs)-1)
		seq[i] = Req{Source: hubs[rank], K: FleetKs[r.IntN(len(FleetKs))]}
	}
	// Each cold source replaces two distinct positions.
	pos := r.Perm(n)[:2*FleetCold]
	for i, p := range pos {
		seq[p].Source = cold[i/2]
	}
	return FleetInputs{Hubs: hubs, Cold: cold, Checked: hubs[:FleetChecked], Seq: seq}
}

// ChurnInputs is the churn workload's input: per epoch, a fixed pool of
// ChurnPerEpoch distinct sources (queried in seeded order), and after
// every epoch but the last a fixed batch of edge inserts.
type ChurnInputs struct {
	Epochs int
	Pools  [][]exactsim.NodeID
	Edits  [][][2]exactsim.NodeID
	Seq    []Req
}

// ChurnEpochs is the epoch count of a run of the given length.
func ChurnEpochs(seconds int) int { return atLeast(ChurnEpochRate*float64(seconds), 2) }

// ChurnCheckedEpochs lists the checked epochs (0-based) of a run.
func ChurnCheckedEpochs(epochs int) []int {
	var out []int
	for e := 0; e < epochs && len(out) < ChurnCheckEpochs; e += ChurnCheckEvery {
		out = append(out, e)
	}
	return out
}

// ChurnRefEpochs is the epoch count whose schedule the churn references
// cover: up to the last epoch a run can check.
func ChurnRefEpochs() int { return (ChurnCheckEpochs-1)*ChurnCheckEvery + 1 }

// ChurnRefDigest fingerprints the edits that lead to the last checked
// epoch; a churn reference file records it.
func ChurnRefDigest(g *exactsim.Graph) uint64 {
	_, edits := ChurnSchedule(g, ChurnRefEpochs())
	return ScheduleDigest(edits)
}

// ChurnSchedule returns the fixed per-epoch pools and edit batches for
// epochs 0..epochs-1. Inserts are drawn from the same RMAT quadrant
// weights as the base graph, so the graph stays power-law as it grows.
func ChurnSchedule(g *exactsim.Graph, epochs int) (pools [][]exactsim.NodeID, edits [][][2]exactsim.NodeID) {
	pr := newRand(PoolSeed, 4)
	er := newRand(ScheduleSeed, 5)
	scale := 0
	for 1<<scale < g.N() {
		scale++
	}
	for e := 0; e < epochs; e++ {
		pools = append(pools, drawSources(g, pr, ChurnPerEpoch, nil))
		if e == epochs-1 {
			break
		}
		batch := make([][2]exactsim.NodeID, 0, ChurnBatch)
		for len(batch) < ChurnBatch {
			u, v := rmatEdge(er, scale)
			if u != v {
				batch = append(batch, [2]exactsim.NodeID{u, v})
			}
		}
		edits = append(edits, batch)
	}
	return pools, edits
}

// rmatEdge draws one edge with the (0.57, 0.19, 0.19, 0.05) quadrant
// weights exactsim.GenerateRMAT uses.
func rmatEdge(r *rand.Rand, scale int) (exactsim.NodeID, exactsim.NodeID) {
	var u, v int
	for bit := 1 << (scale - 1); bit > 0; bit >>= 1 {
		switch x := r.Float64(); {
		case x < 0.57:
		case x < 0.76:
			v |= bit
		case x < 0.95:
			u |= bit
		default:
			u |= bit
			v |= bit
		}
	}
	return exactsim.NodeID(u), exactsim.NodeID(v)
}

// ChurnPlan builds the churn request sequence, epoch-major.
func ChurnPlan(g *exactsim.Graph, seed uint64, seconds int) ChurnInputs {
	epochs := ChurnEpochs(seconds)
	pools, edits := ChurnSchedule(g, epochs)
	r := newRand(seed, 6)
	var seq []Req
	for e, pool := range pools {
		order := slices.Clone(pool)
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, s := range order {
			seq = append(seq, Req{Source: s, K: ChurnK, Epoch: e})
		}
	}
	return ChurnInputs{Epochs: epochs, Pools: pools, Edits: edits, Seq: seq}
}

// ApplyBatch inserts one edit batch into d (existing edges are skipped).
func ApplyBatch(d *exactsim.DynamicGraph, batch [][2]exactsim.NodeID) {
	for _, e := range batch {
		d.AddEdge(e[0], e[1])
	}
}

// ScheduleDigest fingerprints the edit schedule, so a reference file built
// for another schedule is refused.
func ScheduleDigest(edits [][][2]exactsim.NodeID) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, batch := range edits {
		for _, e := range batch {
			u, v := uint32(e[0]), uint32(e[1])
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			b[4], b[5], b[6], b[7] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
