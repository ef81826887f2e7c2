package bench

import (
	"math"
	"slices"
	"time"
)

// TailIndex applies the tail rule to n sorted samples: the highest
// percentile with at least ten samples beyond it, i.e. the 11th largest
// sample, labelled 100·(n−10)/n. Under forty samples that percentile
// would be no tail, so the median is reported alone (ok = false).
func TailIndex(n int) (idx int, pct float64, ok bool) {
	if n < 40 {
		return MedianIndex(n), 50, false
	}
	return n - 11, 100 * float64(n-10) / float64(n), true
}

// MedianIndex is the index of the (lower) median of n sorted samples.
func MedianIndex(n int) int { return (n - 1) / 2 }

// Latency summarizes per-query latencies in milliseconds.
type Latency struct {
	N              int
	P50Ms, TailMs  float64
	TailPercentile float64
}

// Summarize sorts a copy of lat and applies the median and tail rules.
func Summarize(lat []time.Duration) Latency {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	slices.Sort(ms)
	if len(ms) == 0 {
		return Latency{}
	}
	ti, pct, _ := TailIndex(len(ms))
	return Latency{N: len(ms), P50Ms: ms[MedianIndex(len(ms))], TailMs: ms[ti], TailPercentile: pct}
}

// Quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method). It needs at least two values.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	m := len(d) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Spread is the quartile distance of xs as a share of their median.
func Spread(xs []float64) (median, spread float64) {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return 0, math.Inf(1)
	}
	return q2, (q3 - q1) / math.Abs(q2)
}
