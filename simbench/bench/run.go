package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/cluster"
)

// Config is one invocation of the benchmark.
type Config struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	RefDir   string // reference files (cmd/simref writes them)
	SpanDir  string // traced runs write their spans here
	Log      io.Writer
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// spec is a workload's fixed form: its sequence, accuracy, stack set-up
// and tier ladder (innermost first; the last tier is the workload path).
type spec struct {
	seq     []Req
	clients int
	eps     float64
	refEps  float64
	digest  uint64
	build   func(ctx context.Context, tier string) (*Stack, error)
	ladder  []string
	checked map[RefKey]bool
	// setupReps is how many times an untraced run builds its stack;
	// setup_s is the median.
	setupReps int
}

func newSpec(name string, seed uint64, seconds int) (*spec, error) {
	switch name {
	case Tight:
		g := RMAT16()
		in := TightPlan(g, seed, seconds)
		s := &spec{seq: in.Seq, clients: 1, eps: TightEps, refEps: TightRefEps,
			build:  func(_ context.Context, t string) (*Stack, error) { return TightStack(t) },
			ladder: []string{TierKernel, TierService}, checked: map[RefKey]bool{}, setupReps: 5}
		for _, c := range in.Checked {
			s.checked[RefKey{Source: c}] = true
		}
		return s, nil
	case Fleet:
		in := FleetPlan(BA20k(), seed, seconds)
		s := &spec{seq: in.Seq, clients: FleetClients, eps: FleetEps, refEps: FleetRefEps,
			build:  FleetStack,
			ladder: []string{TierKernel, TierService, TierHTTP, TierCluster}, checked: map[RefKey]bool{}, setupReps: 3}
		for _, c := range in.Checked {
			s.checked[RefKey{Source: c}] = true
		}
		return s, nil
	case Churn:
		g := RMAT16()
		in := ChurnPlan(g, seed, seconds)
		s := &spec{seq: in.Seq, clients: 1, eps: ChurnEps, refEps: ChurnRefEps,
			build:  func(_ context.Context, t string) (*Stack, error) { return ChurnStack(t, in.Edits) },
			ladder: []string{TierKernel, TierService}, checked: map[RefKey]bool{}, setupReps: 5}
		ce := ChurnCheckedEpochs(in.Epochs)
		for _, e := range ce {
			for _, src := range in.Pools[e][:ChurnChecked] {
				s.checked[RefKey{Epoch: e, Source: src}] = true
			}
		}
		s.digest = ChurnRefDigest(g)
		return s, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, Workloads)
}

// loadRefs reads the workload's references and keeps the checked ones.
func (s *spec) loadRefs(dir, name string) (map[RefKey][]float64, error) {
	rs, err := ReadRefs(RefPath(dir, name))
	if err != nil {
		return nil, err
	}
	var g *exactsim.Graph
	if name == Fleet {
		g = BA20k()
	} else {
		g = RMAT16()
	}
	if err := rs.Match(name, exactsim.GraphChecksum(g), s.digest, s.refEps); err != nil {
		return nil, err
	}
	out := make(map[RefKey][]float64, len(s.checked))
	for k := range s.checked {
		v, ok := rs.Vecs[k]
		if !ok {
			return nil, fmt.Errorf("reference file lacks epoch %d source %d; rebuild it with cmd/simref", k.Epoch, k.Source)
		}
		out[k] = v
	}
	return out, nil
}

// Checker checks every answer of one replay. Safe for concurrent use.
type Checker struct {
	mu       sync.Mutex
	eps      float64
	refEps   float64
	epochs   bool
	refs     map[RefKey][]float64
	sym      *Symmetry
	topk     map[[3]int][]exactsim.Entry // first top-k per (epoch, source, k)
	Failed   int
	Failures []string // the (epoch, source) pairs whose reference check failed
	Errors   []error  // the first property violations; any makes the run incorrect
	NErrors  int      // all property violations
	MaxErr   float64  // worst reference error over eps
	Checked  int      // answers compared against the reference
	// ErrReplies counts operations answered with an error instead of
	// scores (also counted in Failed).
	ErrReplies int
}

// NewChecker checks answers at eps against refs (keyed by epoch and
// source); epochs says whether answers carry a graph epoch.
func NewChecker(seq []Req, eps, refEps float64, epochs bool, refs map[RefKey][]float64) *Checker {
	return &Checker{eps: eps, refEps: refEps, epochs: epochs, refs: refs,
		sym: NewSymmetry(seq, eps), topk: map[[3]int][]exactsim.Entry{}}
}

func (c *Checker) fail(r Req, err error) {
	c.NErrors++
	if len(c.Errors) < 20 {
		c.Errors = append(c.Errors, fmt.Errorf("epoch %d source %d k %d: %w", r.Epoch, r.Source, r.K, err))
	}
}

// Check checks one answer and reports whether the operation failed (an
// error reply, or an answer outside ε of the reference). The passes over
// the score vector run outside the lock, so concurrent clients check in
// parallel.
func (c *Checker) Check(r Req, a Answer) bool {
	if a.Err != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.Failed++
		c.ErrReplies++
		c.Failures = append(c.Failures, fmt.Sprintf("epoch=%d source=%d error=%v", r.Epoch, r.Source, a.Err))
		return true
	}
	propErr := CheckAnswer(a.Scores, a.TopK, r.Source, r.K, c.eps)
	ref, checked := c.refs[RefKey{Epoch: r.Epoch, Source: r.Source}]
	var worst float64
	var refErr error
	if checked {
		worst, refErr = RefError(a.Scores, ref, c.eps, c.refEps, RefQuantum)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if propErr != nil {
		c.fail(r, propErr)
	}
	if c.epochs {
		if err := CheckEpoch(a.Epoch, uint64(r.Epoch)+1); err != nil {
			c.fail(r, err)
		}
	}
	key := [3]int{r.Epoch, int(r.Source), r.K}
	if prev, ok := c.topk[key]; ok {
		if err := SameTopK(prev, a.TopK); err != nil {
			c.fail(r, fmt.Errorf("repeat answer differs from the first: %w", err))
		}
	} else {
		c.topk[key] = a.TopK
	}
	c.sym.Record(r.Epoch, r.Source, a.Scores)
	if !checked {
		return false
	}
	c.Checked++
	c.MaxErr = math.Max(c.MaxErr, worst/c.eps)
	if refErr != nil {
		c.Failed++
		c.Failures = append(c.Failures, fmt.Sprintf("epoch=%d source=%d err/eps=%.3f", r.Epoch, r.Source, worst/c.eps))
		return true
	}
	return false
}

// Finish runs the pairwise checks once every answer is in.
func (c *Checker) Finish() {
	for _, err := range c.sym.Check() {
		c.fail(Req{}, err)
	}
}

// TopKs returns the first top-k answered per (epoch, source, k).
func (c *Checker) TopKs() map[[3]int][]exactsim.Entry { return c.topk }

// replay is one pass of a request sequence through one stack.
type replay struct {
	lat        []time.Duration
	wall, cpu  time.Duration
	alloc      uint64 // bytes allocated during the pass
	cacheHits  int
	routes     map[string]int
	kernel     []*exactsim.Result
	kernelTime []time.Duration // algorithm query time of computed answers
	firstLat   []time.Duration // first query of each epoch
	updates    []time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run replays seq through st with the spec's closed-loop clients,
// checking every answer; epochs are barriers with Between after each.
func (s *spec) run(ctx context.Context, st *Stack, ck *Checker, tr *Tracer) *replay {
	rp := &replay{lat: make([]time.Duration, len(s.seq)), routes: map[string]int{}}
	var byEpoch [][]int
	for i, r := range s.seq {
		for len(byEpoch) <= r.Epoch {
			byEpoch = append(byEpoch, nil)
		}
		byEpoch[r.Epoch] = append(byEpoch[r.Epoch], i)
	}
	var (
		mu       sync.Mutex
		checking atomic.Int64 // nanoseconds spent in ck.Check
	)
	do := func(i int) {
		r := s.seq[i]
		start := time.Now()
		a := st.Do(ctx, r)
		lat := time.Since(start)
		if tr != nil {
			trace := tr.NewID()
			attrs := map[string]float64{"source": float64(r.Source), "k": float64(r.K), "epoch": float64(r.Epoch)}
			if a.CacheHit {
				attrs["cache_hit"] = 1
			}
			root := tr.Record(trace, 0, st.Tier, st.Tier+".query", start, start.Add(lat), attrs)
			if d := a.Detail; d != nil {
				tr.Record(trace, root, st.Tier, "core.query", start, start.Add(a.QueryTime), map[string]float64{
					"forward_ns": float64(d.ForwardTime), "diag_ns": float64(d.DiagTime),
					"backward_ns": float64(d.BackwardTime), "samples": float64(d.TotalSamples)})
			}
		}
		cstart := time.Now()
		ck.Check(r, a)
		checking.Add(int64(time.Since(cstart)))
		mu.Lock()
		defer mu.Unlock()
		rp.lat[i] = lat
		if a.Err != nil {
			return
		}
		if a.CacheHit {
			rp.cacheHits++
		}
		if a.Plan != "" {
			rp.routes[a.Plan]++
		}
		if a.Detail != nil {
			rp.kernel = append(rp.kernel, a.Detail)
		}
		if !a.CacheHit {
			rp.kernelTime = append(rp.kernelTime, a.QueryTime)
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuTime(), time.Now()
	for e, idx := range byEpoch {
		first := idx[0]
		do(first)
		rp.firstLat = append(rp.firstLat, rp.lat[first])
		closedLoop(s.clients, idx[1:], do)
		if e < len(byEpoch)-1 {
			ustart := time.Now()
			u := st.Between(e)
			rp.updates = append(rp.updates, u)
			tr.Record(tr.NewID(), 0, st.Tier, "service.update", ustart, ustart.Add(u), map[string]float64{"epoch": float64(e + 1)})
		}
	}
	// The checks run in the clients between requests. Their time is the
	// benchmark's, not the program's: it comes off the CPU time, and off
	// the wall time spread over the clients.
	chk := time.Duration(checking.Load())
	rp.wall, rp.cpu = time.Since(t0)-chk/time.Duration(s.clients), cpuTime()-cpu0-chk
	runtime.ReadMemStats(&m1)
	rp.alloc = m1.TotalAlloc - m0.TotalAlloc
	return rp
}

// closedLoop runs do over idx with the given number of clients, each
// sending its next request only after the previous one completed.
func closedLoop(clients int, idx []int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(idx) {
					return
				}
				do(idx[k])
			}
		}()
	}
	wg.Wait()
}

// heapLiveMB is the live heap after two forced collections (the second
// empties the sync.Pool victim caches the first one fills).
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// Run executes one benchmark invocation.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	s, err := newSpec(cfg.Workload, cfg.Seed, cfg.Seconds)
	if err != nil {
		return nil, err
	}
	refs, err := s.loadRefs(cfg.RefDir, cfg.Workload)
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	if cfg.Trace {
		return s.traced(ctx, cfg, refs)
	}
	return s.untraced(ctx, cfg, refs)
}

func (s *spec) untraced(ctx context.Context, cfg Config, refs map[RefKey][]float64) (*Result, error) {
	top := s.ladder[len(s.ladder)-1]
	var setups []float64
	for i := 0; ; i++ {
		runtime.GC()
		start := time.Now()
		st, err := s.build(ctx, top)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if st.WarmCold > 0 {
			fmt.Fprintf(cfg.Log, "WARM-COLD set-up %d: the Warm of %d hubs left %d (source, replica) pairs cold; warmed one by one\n",
				i+1, FleetHubs, st.WarmCold)
		}
		if i == s.setupReps-1 {
			defer st.Close()
			return s.measure(ctx, cfg, refs, st, setups)
		}
		st.Close()
	}
}

func (s *spec) measure(ctx context.Context, cfg Config, refs map[RefKey][]float64, st *Stack, setups []float64) (*Result, error) {
	ck := NewChecker(s.seq, s.eps, s.refEps, st.Tier != TierKernel, refs)
	rp := s.run(ctx, st, ck, nil)
	heap := heapLiveMB()
	if err := s.verify(ctx, ck, st.Tier); err != nil {
		return nil, err
	}
	lat := Summarize(rp.lat)
	n := float64(len(s.seq) - ck.ErrReplies)
	res := s.result(ck)
	_, setup, _ := Quartiles(setups)
	res.Metrics = map[string]Metric{
		"setup_s":          {setup, "s"},
		"throughput_qps":   {n / rp.wall.Seconds(), "1/s"},
		"latency_p50_ms":   {lat.P50Ms, "ms"},
		"latency_tail_ms":  {lat.TailMs, "ms"},
		"cpu_ms_per_query": {float64(rp.cpu.Nanoseconds()) / 1e6 / n, "ms"},
		"heap_live_mb":     {heap, "MB"},
	}
	for _, f := range ck.Failures {
		fmt.Fprintf(cfg.Log, "FAILED %s\n", f)
	}
	for _, e := range ck.Errors {
		fmt.Fprintf(cfg.Log, "INCORRECT %v\n", e)
	}
	fmt.Fprintf(cfg.Log, "%s seed=%d: %d queries in %.2fs, tail = p%.1f of %d samples, %d checked against the reference\n",
		cfg.Workload, cfg.Seed, len(s.seq), rp.wall.Seconds(), lat.TailPercentile, lat.N, ck.Checked)
	return res, nil
}

func (s *spec) result(ck *Checker) *Result {
	return &Result{Correct: ck.NErrors == 0 && ck.Checked > 0, Attempted: len(s.seq), Failed: ck.Failed}
}

// verify runs the end-of-run checks: pairwise symmetry and, for routed
// answers, every top-k against an in-process Service built separately on
// the same graph and options.
func (s *spec) verify(ctx context.Context, ck *Checker, tier string) error {
	ck.Finish()
	if tier != TierCluster {
		return nil
	}
	g := BA20k()
	svc, err := exactsim.NewService(g, serviceOptions(g))
	if err != nil {
		return err
	}
	defer svc.Close()
	keys := make([][3]int, 0, len(ck.TopKs()))
	for k := range ck.TopKs() {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [3]int) int { return slices.Compare(a[:], b[:]) })
	// Plain Query calls from the benchmark's clients, not Batch, whose
	// admission sheds queries now and then (see FleetStack's warm).
	got := make([]exactsim.Response, len(keys))
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	closedLoop(FleetClients, idx, func(i int) {
		got[i] = svc.Query(ctx, exactsim.Request{Source: exactsim.NodeID(keys[i][1]), K: keys[i][2]})
	})
	for i, resp := range got {
		r := Req{Source: exactsim.NodeID(keys[i][1]), K: keys[i][2]}
		if resp.Err != nil {
			return fmt.Errorf("in-process comparison: %w", resp.Err)
		}
		if err := SameTopK(ck.TopKs()[keys[i]], resp.TopK); err != nil {
			ck.fail(r, fmt.Errorf("routed top-k differs from in-process: %w", err))
		}
	}
	return nil
}

// traced replays the sequence untraced on the workload path (the
// baseline for the tracing overhead), then through every tier of the
// ladder with spans on, each tier on a fresh stack.
func (s *spec) traced(ctx context.Context, cfg Config, refs map[RefKey][]float64) (*Result, error) {
	top := s.ladder[len(s.ladder)-1]
	st, err := s.build(ctx, top)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	base := s.run(ctx, st, NewChecker(s.seq, s.eps, s.refEps, st.Tier != TierKernel, refs), nil)
	st.Close()
	warmCold := st.WarmCold

	tr := NewTracer()
	total := &Result{Correct: true, Metrics: map[string]Metric{}}
	tiers := map[string]*tierStats{}
	for _, tier := range s.ladder {
		runtime.GC()
		bstart := time.Now()
		st, err := s.build(ctx, tier)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", tier, err)
		}
		tr.Record(tr.NewID(), 0, tier, tier+".setup", bstart, time.Now(), nil)
		warmCold += st.WarmCold
		ck := NewChecker(s.seq, s.eps, s.refEps, st.Tier != TierKernel, refs)
		rp := s.run(ctx, st, ck, tr)
		ts := &tierStats{rp: rp}
		if st.Service != nil {
			ss := st.Service()
			ts.svc = &ss
		}
		if st.Fleet != nil {
			fs := st.Fleet()
			ts.fleet = &fs
		}
		if st.RespBytes != nil {
			ts.respBytes = st.RespBytes.Load()
		}
		if st.BuildMs != nil {
			ts.buildMs = st.BuildMs()
		}
		if err := s.verify(ctx, ck, tier); err != nil {
			st.Close()
			return nil, err
		}
		st.Close()
		r := s.result(ck)
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		if tier == top {
			ts.maxErr = ck.MaxErr
			for _, f := range ck.Failures {
				fmt.Fprintf(cfg.Log, "FAILED %s\n", f)
			}
		}
		for _, e := range ck.Errors {
			fmt.Fprintf(cfg.Log, "INCORRECT %s tier: %v\n", tier, e)
		}
		tiers[tier] = ts
	}
	total.Metrics = s.layerMetrics(tiers, base)
	total.Metrics["service.warm_cold"] = Metric{float64(warmCold), "count"}
	if warmCold > 0 {
		fmt.Fprintf(cfg.Log, "WARM-COLD the set-ups' Warm calls left %d (source, replica) pairs cold\n", warmCold)
	}
	if err := os.MkdirAll(cfg.SpanDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.SpanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
	if err := tr.WriteFile(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.Log, "%d spans written to %s\n", tr.Len(), path)
	s.printLadder(cfg.Log, tiers, base)
	return total, nil
}

type tierStats struct {
	rp        *replay
	svc       *exactsim.ServiceStats
	fleet     *cluster.FleetStats
	respBytes int64
	buildMs   float64
	maxErr    float64
}

func (s *spec) printLadder(w io.Writer, tiers map[string]*tierStats, base *replay) {
	fmt.Fprintf(w, "tier ladder (%d requests, %d clients):\n", len(s.seq), s.clients)
	prev := 0.0
	for _, tier := range s.ladder {
		ts := tiers[tier]
		mean := meanMs(ts.rp.lat)
		fmt.Fprintf(w, "  %-8s mean %9.3f ms  p50 %9.3f ms  self %+9.3f ms  wall %7.2f s  alloc %8.1f KB/query\n",
			tier, mean, Summarize(ts.rp.lat).P50Ms, mean-prev, ts.rp.wall.Seconds(),
			float64(ts.rp.alloc)/1024/float64(len(s.seq)))
		prev = mean
	}
	top := tiers[s.ladder[len(s.ladder)-1]].rp.wall
	fmt.Fprintf(w, "tracing overhead: untraced %.2f s, traced %.2f s on the same path (%+.1f%%)\n",
		base.wall.Seconds(), top.Seconds(), 100*(top.Seconds()/base.wall.Seconds()-1))
}

// layerMetrics derives the per-layer figures from the tier ladder: a
// tier's self cost is its mean per-query latency (or allocation) minus
// the next inner tier's, on the same request sequence.
func (s *spec) layerMetrics(tiers map[string]*tierStats, base *replay) map[string]Metric {
	n := float64(len(s.seq))
	mean := func(tier string) float64 {
		if ts := tiers[tier]; ts != nil {
			return meanMs(ts.rp.lat)
		}
		return 0
	}
	allocKB := func(tier string) float64 {
		if ts := tiers[tier]; ts != nil {
			return float64(ts.rp.alloc) / 1024 / n
		}
		return 0
	}
	self := func(tier, inner string, f func(string) float64) float64 {
		if tiers[tier] == nil {
			return 0
		}
		return f(tier) - f(inner)
	}
	k := tiers[TierKernel].rp
	var fwd, dg, bwd, samples float64
	for _, d := range k.kernel {
		fwd += float64(d.ForwardTime.Nanoseconds()) / 1e6
		dg += float64(d.DiagTime.Nanoseconds()) / 1e6
		bwd += float64(d.BackwardTime.Nanoseconds()) / 1e6
		samples += float64(d.TotalSamples)
	}
	if nk := float64(len(k.kernel)); nk > 0 {
		fwd, dg, bwd, samples = fwd/nk, dg/nk, bwd/nk, samples/nk
	}
	var coreAlloc, prsimQuery float64
	if len(k.kernelTime) > 0 {
		coreAlloc = float64(k.alloc) / 1024 / float64(len(k.kernelTime))
	}
	if k.routes["prsim"] > 0 {
		prsimQuery = meanMs(k.kernelTime)
	}
	svc := tiers[TierService]
	var hitRate, residentMB, sojourn float64
	if svc.svc != nil {
		hitRate, residentMB = svc.svc.DiagHitRate, float64(svc.svc.DiagResidentBytes)/(1<<20)
		sojourn = float64(svc.svc.QueueSojournMicros)
	}
	var respKB, hedged, retries float64
	if ts := tiers[TierHTTP]; ts != nil {
		respKB = float64(ts.respBytes) / 1024 / n
	}
	if ts := tiers[TierCluster]; ts != nil && ts.fleet != nil {
		hedged, retries = float64(ts.fleet.Hedged), float64(ts.fleet.Retries)
	}
	top := tiers[s.ladder[len(s.ladder)-1]]
	return map[string]Metric{
		"core.query_ms":                {meanMs(k.kernelTime), "ms"},
		"core.forward_ms":              {fwd, "ms"},
		"core.diag_ms":                 {dg, "ms"},
		"core.backward_ms":             {bwd, "ms"},
		"core.samples_per_query":       {samples, "count"},
		"core.alloc_kb":                {coreAlloc, "KB"},
		"diag.hit_rate":                {hitRate, "ratio"},
		"diag.resident_mb":             {residentMB, "MB"},
		"prsim.build_ms":               {tiers[TierKernel].buildMs, "ms"},
		"prsim.query_ms":               {prsimQuery, "ms"},
		"plan.route.exactsim":          {float64(svc.rp.routes["exactsim"]), "count"},
		"plan.route.prsim":             {float64(svc.rp.routes["prsim"]), "count"},
		"service.update_ms":            {meanMs(svc.rp.updates), "ms"},
		"service.epoch_first_query_ms": {meanMs(svc.rp.firstLat), "ms"},
		"service.self_us":              {1000 * self(TierService, TierKernel, mean), "us"},
		"service.alloc_kb":             {self(TierService, TierKernel, allocKB), "KB"},
		"service.cache_hit_rate":       {float64(svc.rp.cacheHits) / n, "ratio"},
		"service.queue_sojourn_us":     {sojourn, "us"},
		"httpapi.self_ms":              {self(TierHTTP, TierService, mean), "ms"},
		"httpapi.alloc_kb":             {self(TierHTTP, TierService, allocKB), "KB"},
		"httpapi.response_kb":          {respKB, "KB"},
		"cluster.self_ms":              {self(TierCluster, TierHTTP, mean), "ms"},
		"cluster.alloc_kb":             {self(TierCluster, TierHTTP, allocKB), "KB"},
		"cluster.hedged":               {hedged, "count"},
		"cluster.retries":              {retries, "count"},
		"tier.kernel_ms":               {mean(TierKernel), "ms"},
		"tier.service_ms":              {mean(TierService), "ms"},
		"tier.httpapi_ms":              {mean(TierHTTP), "ms"},
		"tier.cluster_ms":              {mean(TierCluster), "ms"},
		"accuracy.max_err_over_eps":    {top.maxErr, "ratio"},
		"trace.overhead_pct":           {100 * (top.rp.wall.Seconds()/base.wall.Seconds() - 1), "%"},
	}
}
