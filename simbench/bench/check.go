package bench

import (
	"fmt"
	"math"

	exactsim "github.com/exactsim/exactsim"
)

// CheckAnswer checks the properties every single-source answer must have
// at additive error eps: s(source, source) = 1 within eps, every score
// in [0, 1+eps], and — when k > 0 — topk equal to the k largest
// non-source scores in descending order (ties by ascending node id),
// each entry carrying exactly its score from the vector.
func CheckAnswer(scores []float64, topk []exactsim.Entry, source exactsim.NodeID, k int, eps float64) error {
	n := len(scores)
	if int(source) < 0 || int(source) >= n {
		return fmt.Errorf("source %d outside a %d-score answer", source, n)
	}
	if d := math.Abs(scores[source] - 1); !(d <= eps) {
		return fmt.Errorf("s(%d,%d) = %g, not 1 within %g", source, source, scores[source], eps)
	}
	for j, v := range scores {
		if !(v >= 0 && v <= 1+eps) {
			return fmt.Errorf("score s(%d,%d) = %g outside [0, 1+%g]", source, j, v, eps)
		}
	}
	return CheckTopK(scores, topk, source, k)
}

// CheckTopK checks that topk lists the min(k, n-1) best non-source
// entries of scores in the TopK ordering contract.
func CheckTopK(scores []float64, topk []exactsim.Entry, source exactsim.NodeID, k int) error {
	want := min(k, len(scores)-1)
	if k <= 0 {
		want = 0
	}
	if len(topk) != want {
		return fmt.Errorf("top-k has %d entries, want %d", len(topk), want)
	}
	in := make(map[int32]bool, len(topk))
	for i, e := range topk {
		if e.Idx < 0 || int(e.Idx) >= len(scores) || e.Idx == int32(source) || in[e.Idx] {
			return fmt.Errorf("top-k entry %d names node %d (source %d, or repeated, or out of range)", i, e.Idx, source)
		}
		in[e.Idx] = true
		if math.Float64bits(e.Val) != math.Float64bits(scores[e.Idx]) {
			return fmt.Errorf("top-k entry %d: score %g, vector has %g", i, e.Val, scores[e.Idx])
		}
		if i > 0 && !ranksBefore(topk[i-1], e) {
			return fmt.Errorf("top-k entries %d and %d out of order", i-1, i)
		}
	}
	if want == 0 {
		return nil
	}
	// The entries are distinct, carry their vector scores and are in
	// order, so all of them rank at or before the last one; any other
	// non-source node that does belongs in the top-k. Counting keeps the
	// pass over the vector free of lookups.
	last := topk[want-1]
	ahead := 0
	for j, v := range scores {
		if j != int(source) && !ranksBefore(last, exactsim.Entry{Idx: int32(j), Val: v}) {
			ahead++
		}
	}
	if ahead == want {
		return nil
	}
	for j, v := range scores {
		if j != int(source) && !in[int32(j)] && !ranksBefore(last, exactsim.Entry{Idx: int32(j), Val: v}) {
			return fmt.Errorf("node %d (score %g) belongs in the top-%d", j, v, k)
		}
	}
	return fmt.Errorf("%d nodes rank at or before the top-%d's last entry", ahead, k)
}

// ranksBefore is the TopK order: higher score first, lower id on ties.
func ranksBefore(a, b exactsim.Entry) bool {
	return a.Val > b.Val || (a.Val == b.Val && a.Idx < b.Idx)
}

// CheckEpoch checks the graph generation an answer reports.
func CheckEpoch(got, want uint64) error {
	if got != want {
		return fmt.Errorf("answered on graph epoch %d, want %d", got, want)
	}
	return nil
}

// RefError returns max_j |scores(j) - ref(j)|, and an error when it
// exceeds what an eps-accurate answer may show against a reference of
// accuracy refEps stored with quantum q: eps + refEps + q/2.
func RefError(scores, ref []float64, eps, refEps, q float64) (float64, error) {
	if len(scores) != len(ref) {
		return math.Inf(1), fmt.Errorf("answer has %d scores, reference %d", len(scores), len(ref))
	}
	var worst float64
	for j := range ref {
		if d := math.Abs(scores[j] - ref[j]); d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	if !(worst <= eps+refEps+q/2) {
		return worst, fmt.Errorf("max error %.4g against the reference exceeds ε = %g (%.3f ε)", worst, eps, worst/eps)
	}
	return worst, nil
}

// SameTopK checks two top-k lists for bit-identical entries.
func SameTopK(a, b []exactsim.Entry) error {
	if len(a) != len(b) {
		return fmt.Errorf("top-k lengths %d and %d differ", len(a), len(b))
	}
	for i := range a {
		if a[i].Idx != b[i].Idx || math.Float64bits(a[i].Val) != math.Float64bits(b[i].Val) {
			return fmt.Errorf("top-k entry %d differs: (%d, %x) vs (%d, %x)", i,
				a[i].Idx, math.Float64bits(a[i].Val), b[i].Idx, math.Float64bits(b[i].Val))
		}
	}
	return nil
}

// Symmetry records, per graph epoch, s_i(j) for every pair of sources in
// the epoch's source set, so the SimRank symmetry s_i(j) = s_j(i) can be
// checked within 2ε wherever both sides were answered.
type Symmetry struct {
	eps  float64
	sets map[int]map[exactsim.NodeID]bool
	rows map[int]map[exactsim.NodeID]map[exactsim.NodeID]float64
}

// NewSymmetry tracks the distinct sources of each epoch of seq.
func NewSymmetry(seq []Req, eps float64) *Symmetry {
	s := &Symmetry{eps: eps, sets: map[int]map[exactsim.NodeID]bool{},
		rows: map[int]map[exactsim.NodeID]map[exactsim.NodeID]float64{}}
	for _, r := range seq {
		if s.sets[r.Epoch] == nil {
			s.sets[r.Epoch] = map[exactsim.NodeID]bool{}
			s.rows[r.Epoch] = map[exactsim.NodeID]map[exactsim.NodeID]float64{}
		}
		s.sets[r.Epoch][r.Source] = true
	}
	return s
}

// Record keeps the first answer of source on epoch, restricted to the
// epoch's source set. Not safe for concurrent use.
func (s *Symmetry) Record(epoch int, source exactsim.NodeID, scores []float64) {
	rows := s.rows[epoch]
	if rows == nil || rows[source] != nil {
		return
	}
	row := make(map[exactsim.NodeID]float64, len(s.sets[epoch]))
	for j := range s.sets[epoch] {
		row[j] = scores[j]
	}
	rows[source] = row
}

// Check returns one error per asymmetric pair.
func (s *Symmetry) Check() []error {
	var errs []error
	for e, rows := range s.rows {
		for i, row := range rows {
			for j, sij := range row {
				if j <= i {
					continue
				}
				other, ok := rows[j]
				if !ok {
					continue
				}
				if d := math.Abs(sij - other[i]); !(d <= 2*s.eps) {
					errs = append(errs, fmt.Errorf("epoch %d: |s_%d(%d) - s_%d(%d)| = %.4g > 2ε", e, i, j, j, i, d))
				}
			}
		}
	}
	return errs
}
