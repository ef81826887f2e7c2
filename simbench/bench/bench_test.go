package bench

import (
	"math"
	"path/filepath"
	"slices"
	"testing"
	"time"

	exactsim "github.com/exactsim/exactsim"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		idx     int
		pct     float64
		hasTail bool
	}{
		{n: 1, idx: 0, pct: 50},
		{n: 39, idx: 19, pct: 50},
		{n: 40, idx: 29, pct: 75, hasTail: true},
		{n: 64, idx: 53, pct: 84.375, hasTail: true},
		{n: 1000, idx: 989, pct: 99, hasTail: true},
	} {
		idx, pct, ok := TailIndex(tc.n)
		if idx != tc.idx || pct != tc.pct || ok != tc.hasTail {
			t.Errorf("TailIndex(%d) = %d, %g, %v; want %d, %g, %v", tc.n, idx, pct, ok, tc.idx, tc.pct, tc.hasTail)
		}
		if tc.hasTail && tc.n-1-idx != 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want 10", tc.n, tc.n-1-idx)
		}
	}
	// Under forty samples the tail is the median.
	lat := make([]time.Duration, 30)
	for i := range lat {
		lat[i] = time.Duration(30-i) * time.Millisecond
	}
	if s := Summarize(lat); s.TailMs != s.P50Ms || s.P50Ms != 15 {
		t.Errorf("30 samples: p50 %g tail %g, want both 15", s.P50Ms, s.TailMs)
	}
	lat = make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	if s := Summarize(lat); s.TailMs != 90 || s.TailPercentile != 90 {
		t.Errorf("100 samples: tail %g at p%g, want 90 at p90", s.TailMs, s.TailPercentile)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := Quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("Quartiles = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := Quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("Quartiles(2) = %g %g %g", q1, q2, q3)
	}
}

func TestSeededGeneration(t *testing.T) {
	g := exactsim.GenerateRMAT(12, 1<<15, GraphSeed)
	a, b := TightPlan(g, 5, 20), TightPlan(g, 5, 20)
	if !slices.Equal(a.Seq, b.Seq) {
		t.Fatal("same seed, different tight sequences")
	}
	if c := TightPlan(g, 6, 20); slices.Equal(a.Seq, c.Seq) || !slices.Equal(a.Pool, c.Pool) {
		t.Fatal("another seed must reorder the same pool")
	}
	for _, r := range a.Seq {
		if g.InDegree(r.Source) == 0 {
			t.Fatalf("source %d has in-degree 0", r.Source)
		}
	}
	if longer := TightPool(g, 40); !slices.Equal(longer[:len(a.Pool)], a.Pool) {
		t.Fatal("a longer pool must extend the shorter one")
	}

	fa, fb := FleetPlan(g, 5, 10), FleetPlan(g, 5, 10)
	if !slices.Equal(fa.Seq, fb.Seq) || !slices.Equal(fa.Cold, fb.Cold) {
		t.Fatal("same seed, different fleet sequences")
	}
	if fc := FleetPlan(g, 6, 10); slices.Equal(fa.Seq, fc.Seq) || !slices.Equal(fa.Cold, fc.Cold) {
		t.Fatal("another seed must redraw the sequence over the same cold sources")
	}
	count := map[exactsim.NodeID]int{}
	for _, r := range fa.Seq {
		count[r.Source]++
		if !slices.Contains(FleetKs, r.K) {
			t.Fatalf("k %d outside the mix", r.K)
		}
	}
	for _, c := range fa.Cold {
		if count[c] != 2 {
			t.Fatalf("cold source %d asked %d times, want 2", c, count[c])
		}
	}

	ca, cb := ChurnPlan(g, 5, 10), ChurnPlan(g, 9, 10)
	if !slices.Equal(ChurnPlan(g, 5, 10).Seq, ca.Seq) {
		t.Fatal("same seed, different churn sequences")
	}
	if len(ca.Edits) != ca.Epochs-1 || len(ca.Seq) != ca.Epochs*ChurnPerEpoch {
		t.Fatalf("%d epochs, %d batches, %d queries", ca.Epochs, len(ca.Edits), len(ca.Seq))
	}
	// The edit schedule and pools do not depend on the seed.
	if ScheduleDigest(ca.Edits) != ScheduleDigest(cb.Edits) {
		t.Fatal("edit schedule depends on the seed")
	}
	for e := range ca.Pools {
		if !slices.Equal(ca.Pools[e], cb.Pools[e]) {
			t.Fatalf("epoch %d pool depends on the seed", e)
		}
	}
	_, longer := ChurnSchedule(g, ca.Epochs+3)
	if ScheduleDigest(longer[:len(ca.Edits)]) != ScheduleDigest(ca.Edits) {
		t.Fatal("a longer schedule must extend the shorter one")
	}
	if got := ChurnCheckedEpochs(16); !slices.Equal(got, []int{0, 4, 8, 12}) {
		t.Fatalf("checked epochs %v", got)
	}
}

// answer is a small valid answer: source 0, scores descending by id.
func answer() ([]float64, []exactsim.Entry) {
	scores := []float64{1, 0.3, 0.2, 0.2, 0.05, 0}
	return scores, exactsim.TopKOf(scores, 3, 0)
}

func TestChecksCatchPerturbations(t *testing.T) {
	const eps = 0.01
	scores, top := answer()
	if err := CheckAnswer(scores, top, 0, 3, eps); err != nil {
		t.Fatalf("valid answer refused: %v", err)
	}
	bad := func(name string, s []float64, tk []exactsim.Entry) {
		t.Helper()
		if CheckAnswer(s, tk, 0, 3, eps) == nil {
			t.Errorf("%s accepted", name)
		}
	}
	s := slices.Clone(scores)
	s[0] = 1 + 2*eps
	bad("self score off by 2ε", s, top)
	s = slices.Clone(scores)
	s[5] = -2 * eps
	bad("negative score", s, top)
	tk := slices.Clone(top)
	tk[1], tk[2] = tk[2], tk[1]
	bad("tie in the wrong order", scores, tk)
	tk = slices.Clone(top)
	tk[0], tk[1] = tk[1], tk[0]
	bad("reordered top-k", scores, tk)
	tk = slices.Clone(top)
	tk[2] = exactsim.Entry{Idx: 4, Val: scores[4]}
	bad("wrong top-k member", scores, tk)
	tk = slices.Clone(top)
	tk[2].Val = math.Nextafter(tk[2].Val, 1)
	bad("top-k score not the vector's", scores, tk)
	bad("short top-k", scores, top[:2])
	// Node 3 ties node 2 at the top-2 cut; the lower id belongs in it.
	if CheckAnswer(scores, []exactsim.Entry{top[0], {Idx: 3, Val: scores[3]}}, 0, 2, eps) == nil {
		t.Error("tie at the cut broken by the higher id accepted")
	}

	// Against a reference: an answer off by 2ε at one node fails.
	ref := slices.Clone(scores)
	s = slices.Clone(scores)
	s[3] += 2 * eps
	if _, err := RefError(s, ref, eps, eps/10, RefQuantum); err == nil {
		t.Error("score off by 2ε passed the reference check")
	}
	if _, err := RefError(scores, ref, eps, eps/10, RefQuantum); err != nil {
		t.Errorf("exact answer failed the reference check: %v", err)
	}

	if CheckEpoch(3, 4) == nil || CheckEpoch(4, 4) != nil {
		t.Error("epoch check")
	}

	// A routed top-k that differs from the in-process one in the last bit.
	tk = slices.Clone(top)
	tk[0].Val = math.Nextafter(tk[0].Val, 0)
	if SameTopK(top, tk) == nil {
		t.Error("bit-different top-k accepted")
	}
	if SameTopK(top, slices.Clone(top)) != nil {
		t.Error("identical top-k refused")
	}
}

func TestCheckerCountsFailures(t *testing.T) {
	const eps = 0.01
	scores, top := answer()
	seq := []Req{{Source: 0, K: 3, Epoch: 0}, {Source: 0, K: 3, Epoch: 1}}
	refs := map[RefKey][]float64{{Epoch: 1, Source: 0}: slices.Clone(scores)}
	ck := NewChecker(seq, eps, eps/10, true, refs)
	if ck.Check(seq[0], Answer{Scores: scores, TopK: top, Epoch: 1}) {
		t.Fatal("valid answer counted as failed")
	}
	off := slices.Clone(scores)
	off[4] += 2 * eps
	if !ck.Check(seq[1], Answer{Scores: off, TopK: exactsim.TopKOf(off, 3, 0), Epoch: 2}) {
		t.Fatal("answer 2ε off the reference not counted as failed")
	}
	if ck.Failed != 1 || len(ck.Failures) != 1 || len(ck.Errors) != 0 {
		t.Fatalf("failed %d, failures %v, errors %v", ck.Failed, ck.Failures, ck.Errors)
	}
	// Wrong graph epoch is a correctness error.
	ck.Check(seq[0], Answer{Scores: scores, TopK: top, Epoch: 2})
	if len(ck.Errors) != 1 {
		t.Fatalf("wrong epoch not reported: %v", ck.Errors)
	}
}

func TestSymmetry(t *testing.T) {
	seq := []Req{{Source: 0}, {Source: 1}}
	sy := NewSymmetry(seq, 0.01)
	sy.Record(0, 0, []float64{1, 0.30})
	sy.Record(0, 1, []float64{0.31, 1})
	if errs := sy.Check(); len(errs) != 0 {
		t.Fatalf("within 2ε reported: %v", errs)
	}
	sy = NewSymmetry(seq, 0.01)
	sy.Record(0, 0, []float64{1, 0.30})
	sy.Record(0, 1, []float64{0.33, 1})
	if errs := sy.Check(); len(errs) != 1 {
		t.Fatalf("asymmetry of 3ε not reported once: %v", errs)
	}
}

func TestRefsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ref.gz")
	keys := []RefKey{{Epoch: 0, Source: 3}, {Epoch: 4, Source: 9}}
	rs := &RefSet{Workload: "w", GraphChecksum: 42, ScheduleDigest: 7, RefEps: 1e-3,
		Vecs: map[RefKey][]float64{keys[0]: {1, 0.123456789, 0}, keys[1]: {0.5, 1, -1e-7}}}
	if err := WriteRefs(path, rs, keys); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRefs(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Match("w", 42, 7, 1e-3); err != nil {
		t.Fatal(err)
	}
	if got.Match("w", 43, 7, 1e-3) == nil {
		t.Fatal("graph checksum mismatch accepted")
	}
	for _, k := range keys {
		for j, v := range rs.Vecs[k] {
			if d := math.Abs(got.Vecs[k][j] - v); d > RefQuantum/2 {
				t.Fatalf("%v[%d]: %g vs %g", k, j, got.Vecs[k][j], v)
			}
		}
	}
}

func TestDenseSimRankStar(t *testing.T) {
	// Two leaves pointed to by one hub: s(a,b) = c exactly.
	b := exactsim.NewGraphBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	s := DenseSimRank(b.Build(), 0.6, 10)
	if math.Abs(s[1][2]-0.6) > 1e-12 || s[1][1] != 1 || s[0][1] != 0 {
		t.Fatalf("star SimRank %v", s)
	}
}
