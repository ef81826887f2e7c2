package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/cluster"
	"github.com/exactsim/exactsim/httpapi"
)

// Tier names, innermost first.
const (
	TierKernel  = "kernel"
	TierService = "service"
	TierHTTP    = "httpapi"
	TierCluster = "cluster"
)

// Answer is what one tier returned for one request.
type Answer struct {
	Scores   []float64
	TopK     []exactsim.Entry
	Epoch    uint64 // graph epoch; 0 from the kernel tier, which has none
	CacheHit bool
	Plan     string // the planned algorithm of an "auto" request
	// Detail is the ExactSim phase record when the kernel computed this
	// answer (nil on cache hits and for other algorithms); QueryTime is
	// the algorithm's own query time.
	Detail    *exactsim.Result
	QueryTime time.Duration
	Err       error
}

// Stack is one tier's serving stack, built by a workload's set-up.
type Stack struct {
	Tier string
	Do   func(ctx context.Context, r Req) Answer
	// Between publishes the edits that follow epoch e and returns the
	// time the publish took (churn only; nil elsewhere).
	Between func(e int) time.Duration
	Close   func()
	// Optional layer views, nil where the tier has no such layer: the
	// in-process Service's stats, the router's fleet stats, the client's
	// response bytes and the kernel tier's mean index-build time.
	Service   func() exactsim.ServiceStats
	Fleet     func() cluster.FleetStats
	RespBytes *atomic.Int64
	BuildMs   func() float64
	// WarmCold counts the (source, replica) pairs the set-up's single
	// Warm of the hubs left cold (fleet only).
	WarmCold int
}

func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range ds {
		sum += x
	}
	return float64(sum.Nanoseconds()) / 1e6 / float64(len(ds))
}

func serviceOptions(g *exactsim.Graph) exactsim.ServiceOptions {
	// Two workers (nproc on the reference machine) and a result cache
	// that holds every source, so the number of kernel computations does
	// not depend on timing.
	return exactsim.ServiceOptions{Workers: 2, CacheSize: g.N(),
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithSeed(QuerierSeed)}}
}

func fromResponse(resp exactsim.Response) Answer {
	a := Answer{TopK: resp.TopK, Epoch: resp.GraphEpoch, CacheHit: resp.CacheHit}
	if resp.Err != nil {
		a.Err = resp.Err
		return a
	}
	if resp.Plan != nil {
		a.Plan = resp.Plan.Algorithm
	}
	if resp.Result == nil {
		a.Err = errors.New("response carries no result")
		return a
	}
	a.Scores, a.QueryTime = resp.Result.Scores, resp.Result.QueryTime
	if d, ok := resp.Result.Detail.(*exactsim.Result); ok && !resp.CacheHit {
		a.Detail = d
	}
	return a
}

func fromQuerier(top []exactsim.Entry, res *exactsim.QueryResult, err error) Answer {
	if err != nil {
		return Answer{Err: err}
	}
	a := Answer{Scores: res.Scores, TopK: top, QueryTime: res.QueryTime, Plan: res.Algorithm}
	a.Detail, _ = res.Detail.(*exactsim.Result)
	return a
}

// serviceStack wraps an in-process Service; eps 0 keeps the service
// default, and the Algorithm field stays empty so "auto" plans it.
func serviceStack(svc *exactsim.Service, eps float64) *Stack {
	return &Stack{
		Tier: TierService,
		Do: func(ctx context.Context, r Req) Answer {
			return fromResponse(svc.Query(ctx, exactsim.Request{Source: r.Source, K: r.K, Epsilon: eps}))
		},
		Close:   svc.Close,
		Service: svc.Stats,
	}
}

// kernelQuerier builds the querier a Service would build for (alg, eps)
// on g: same seed, its own diagonal index.
func kernelQuerier(g *exactsim.Graph, alg string, eps float64) (exactsim.Querier, error) {
	return exactsim.NewQuerier(alg, g, exactsim.WithSeed(QuerierSeed), exactsim.WithEpsilon(eps),
		exactsim.WithDiagIndex(exactsim.NewDiagSampleIndex(0)))
}

// TightStack builds the exact-tight stack for one tier.
func TightStack(tier string) (*Stack, error) {
	g := RMAT16()
	switch tier {
	case TierKernel:
		q, err := kernelQuerier(g, "exactsim", TightEps)
		if err != nil {
			return nil, err
		}
		return &Stack{Tier: tier, Close: func() {},
			Do: func(ctx context.Context, r Req) Answer { return fromQuerier(q.TopK(ctx, r.Source, r.K)) }}, nil
	case TierService:
		svc, err := exactsim.NewService(g, serviceOptions(g))
		if err != nil {
			return nil, err
		}
		return serviceStack(svc, TightEps), nil
	}
	return nil, fmt.Errorf("%s has no %s tier", Tight, tier)
}

// ChurnStack builds the churn stack for one tier over a fresh RMAT16
// that Between grows by the fixed edit batches.
func ChurnStack(tier string, edits [][][2]exactsim.NodeID) (*Stack, error) {
	g := RMAT16()
	d := exactsim.DynamicFrom(g)
	switch tier {
	case TierKernel:
		// The kernel tier answers with the route the strict planner takes
		// on this graph (prsim), rebuilding its index once per epoch on
		// the first query, as the Service does.
		var (
			mu     sync.Mutex
			q      exactsim.Querier
			builds []time.Duration
		)
		get := func() (exactsim.Querier, error) {
			mu.Lock()
			defer mu.Unlock()
			if q == nil {
				start := time.Now()
				nq, err := kernelQuerier(d.Snapshot(), "prsim", ChurnEps)
				if err != nil {
					return nil, err
				}
				q = nq
				builds = append(builds, time.Since(start))
			}
			return q, nil
		}
		buildMs := func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return meanMs(builds)
		}
		return &Stack{Tier: tier, Close: func() {}, BuildMs: buildMs,
			Do: func(ctx context.Context, r Req) Answer {
				q, err := get()
				if err != nil {
					return Answer{Err: err}
				}
				return fromQuerier(q.TopK(ctx, r.Source, r.K))
			},
			Between: func(e int) time.Duration {
				ApplyBatch(d, edits[e])
				start := time.Now()
				d.Publish()
				mu.Lock()
				q = nil
				mu.Unlock()
				return time.Since(start)
			}}, nil
	case TierService:
		svc, err := exactsim.ServeDynamic(d, serviceOptions(g))
		if err != nil {
			return nil, err
		}
		s := serviceStack(svc, ChurnEps)
		s.Between = func(e int) time.Duration {
			ApplyBatch(d, edits[e])
			start := time.Now()
			d.Publish()
			return time.Since(start)
		}
		return s, nil
	}
	return nil, fmt.Errorf("%s has no %s tier", Churn, tier)
}

// countingTransport counts response body bytes read by the client.
type countingTransport struct {
	base http.RoundTripper
	n    *atomic.Int64
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

// loopback serves h on a fresh 127.0.0.1 port until the returned stop.
func loopback(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // always http.ErrServerClosed after Close
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = hs.Close() // closes the listener and every connection
		<-done
	}, nil
}

// benchClient is an httpapi.Client with its own pooled connections (one
// per closed-loop client) behind a byte-counting transport.
func benchClient(url string) (*httpapi.Client, *atomic.Int64, func(), error) {
	n := new(atomic.Int64)
	tr := &http.Transport{MaxIdleConnsPerHost: FleetClients, IdleConnTimeout: time.Minute}
	c, err := httpapi.NewClient(url, httpapi.WithHTTPClient(&http.Client{Transport: countingTransport{base: tr, n: n}}))
	if err != nil {
		return nil, nil, nil, err
	}
	return c, n, tr.CloseIdleConnections, nil
}

func clientDo(c *httpapi.Client) func(ctx context.Context, r Req) Answer {
	return func(ctx context.Context, r Req) Answer {
		resp, err := c.Query(ctx, exactsim.Request{Source: r.Source, K: r.K})
		if err != nil {
			return Answer{Err: err}
		}
		return fromResponse(resp)
	}
}

// closers runs its functions in reverse order.
type closers []func()

func (cs closers) close() {
	for i := len(cs) - 1; i >= 0; i-- {
		cs[i]()
	}
}

// FleetStack builds the fleet stack for one tier, warmed with the
// FleetHubs hub sources. The cluster tier is the workload's path: an
// httpapi.Client → cluster.Server → Router → FleetBackends httpapi
// replicas, all over loopback.
func FleetStack(ctx context.Context, tier string) (_ *Stack, err error) {
	g := BA20k()
	var cs closers
	defer func() {
		if err != nil {
			cs.close()
		}
	}()
	hubs := TopInDegree(g, FleetHubs)
	// warm pre-computes the hubs in one Warm call and returns how many
	// (source, replica) pairs it left cold. A single Warm of all 32 now and
	// then sheds some of its own background queries as "queue full"
	// (Service.Batch admits Workers+QueueDepth submitters, one more than
	// the queue holds while a worker is between answering and popping).
	// That is counted, and the hubs are then warmed one at a time, so the
	// timed phase starts from the same cache on every run.
	warm := func(do func(exactsim.WarmRequest) (exactsim.WarmResponse, error), replicas int) (int, error) {
		w, err := do(exactsim.WarmRequest{Sources: hubs})
		if err == nil && w.Err != nil {
			err = w.Err
		}
		if err != nil {
			return 0, fmt.Errorf("warm: %w", err)
		}
		cold := replicas*len(hubs) - w.Warmed
		if cold == 0 {
			return 0, nil
		}
		for _, h := range hubs {
			w, err := do(exactsim.WarmRequest{Sources: []exactsim.NodeID{h}})
			if err == nil && (w.Err != nil || w.Warmed != replicas) {
				err = fmt.Errorf("%d warmed, %d failed, err %v", w.Warmed, w.Failed, w.Err)
			}
			if err != nil {
				return cold, fmt.Errorf("re-warm of source %d: %w", h, err)
			}
		}
		return cold, nil
	}
	switch tier {
	case TierKernel:
		q, err := kernelQuerier(g, "exactsim", FleetEps)
		if err != nil {
			return nil, err
		}
		k := &memoKernel{q: q, memo: map[exactsim.NodeID]*memoEntry{}}
		for _, h := range hubs {
			if a := k.get(ctx, h); a.Err != nil {
				return nil, a.Err
			}
		}
		return &Stack{Tier: tier, Close: func() {}, Do: k.do}, nil
	case TierService:
		svc, err := exactsim.NewService(g, serviceOptions(g))
		if err != nil {
			return nil, err
		}
		cold, err := warm(func(wr exactsim.WarmRequest) (exactsim.WarmResponse, error) { return svc.Warm(ctx, wr), nil }, 1)
		if err != nil {
			svc.Close()
			return nil, err
		}
		st := serviceStack(svc, 0)
		st.WarmCold = cold
		return st, nil
	case TierHTTP:
		svc, err := exactsim.NewService(g, serviceOptions(g))
		if err != nil {
			return nil, err
		}
		cs = append(cs, svc.Close)
		url, stop, err := loopback(httpapi.NewServer(svc, httpapi.ServerOptions{}))
		if err != nil {
			return nil, err
		}
		cs = append(cs, stop)
		c, n, idle, err := benchClient(url)
		if err != nil {
			return nil, err
		}
		cs = append(cs, idle)
		cold, err := warm(func(wr exactsim.WarmRequest) (exactsim.WarmResponse, error) { return c.Warm(ctx, wr) }, 1)
		if err != nil {
			return nil, err
		}
		n.Store(0)
		return &Stack{Tier: tier, Do: clientDo(c), Close: cs.close, RespBytes: n, WarmCold: cold}, nil
	case TierCluster:
		urls := make([]string, FleetBackends)
		for i := range urls {
			svc, err := exactsim.NewService(g, serviceOptions(g))
			if err != nil {
				return nil, err
			}
			cs = append(cs, svc.Close)
			url, stop, err := loopback(httpapi.NewServer(svc, httpapi.ServerOptions{}))
			if err != nil {
				return nil, err
			}
			cs = append(cs, stop)
			urls[i] = url
		}
		// No background membership poller (one synchronous poll at New,
		// one before stats are read), and a 2 s hedge delay, well above the
		// slowest cold miss: a hedge on a miss would double a kernel
		// computation on the other replica, making the work depend on
		// timing (a 500 ms floor still fired on ~3 misses per run). With
		// two clients the bounded-load cap never spills a query off its
		// owner.
		r, err := cluster.New(urls, cluster.Options{PollInterval: -1,
			HedgeMinDelay: 2 * time.Second, HedgeMaxDelay: 2 * time.Second})
		if err != nil {
			return nil, err
		}
		cs = append(cs, r.Close)
		url, stop, err := loopback(cluster.NewServer(r, cluster.ServerOptions{}))
		if err != nil {
			return nil, err
		}
		cs = append(cs, stop)
		c, n, idle, err := benchClient(url)
		if err != nil {
			return nil, err
		}
		cs = append(cs, idle)
		cold, err := warm(func(wr exactsim.WarmRequest) (exactsim.WarmResponse, error) { return r.Warm(ctx, wr), nil }, FleetBackends)
		if err != nil {
			return nil, err
		}
		n.Store(0)
		fleet := func() cluster.FleetStats {
			pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			r.Poll(pctx)
			return r.Stats()
		}
		return &Stack{Tier: tier, Do: clientDo(c), Close: cs.close, RespBytes: n, Fleet: fleet, WarmCold: cold}, nil
	}
	return nil, fmt.Errorf("%s has no %s tier", Fleet, tier)
}

// memoKernel is the fleet workload's kernel tier: each distinct source is
// computed once (concurrent askers wait for the first), repeats extract
// their top-k from the memoized vector — the kernel work a cache that
// holds every source leaves, and nothing of the cache itself.
type memoKernel struct {
	q    exactsim.Querier
	mu   sync.Mutex
	memo map[exactsim.NodeID]*memoEntry
}

type memoEntry struct {
	done chan struct{}
	res  *exactsim.QueryResult
	err  error
}

func (k *memoKernel) get(ctx context.Context, src exactsim.NodeID) Answer {
	k.mu.Lock()
	e, ok := k.memo[src]
	if !ok {
		e = &memoEntry{done: make(chan struct{})}
		k.memo[src] = e
	}
	k.mu.Unlock()
	if !ok {
		e.res, e.err = k.q.SingleSource(ctx, src)
		close(e.done)
		return fromQuerier(nil, e.res, e.err)
	}
	<-e.done
	if e.err != nil {
		return Answer{Err: e.err}
	}
	return Answer{Scores: e.res.Scores, CacheHit: true, Plan: e.res.Algorithm}
}

func (k *memoKernel) do(ctx context.Context, r Req) Answer {
	a := k.get(ctx, r.Source)
	if a.Err == nil && r.K > 0 {
		a.TopK = exactsim.TopKOf(a.Scores, r.K, r.Source)
	}
	return a
}
