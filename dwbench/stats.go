package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of ascending-sorted values by
// linear interpolation between closest ranks; NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, n-1)
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// tailQuantiles are the percentiles a tail figure may report, highest
// first.
var tailQuantiles = []float64{0.99, 0.9, 0.5}

// tailQuantile is the percentile rule for tail figures: the highest of
// tailQuantiles that still has at least ten samples beyond it, so a
// "p99" of 40 samples is never just the maximum. With fewer than 20
// samples there is no such percentile and it returns 0.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= 10-1e-9 { // tolerate 1−q's rounding
			return q
		}
	}
	return 0
}

// dist is a sample of one timing, in nanoseconds until converted.
type dist struct{ v []float64 }

func (d *dist) add(x float64)          { d.v = append(d.v, x) }
func (d *dist) addDur(x time.Duration) { d.v = append(d.v, float64(x)) }
func (d *dist) n() int                 { return len(d.v) }
func (d *dist) merge(o *dist)          { d.v = append(d.v, o.v...) }
func (d *dist) sorted() []float64      { s := append([]float64(nil), d.v...); sort.Float64s(s); return s }
func (d *dist) q(q float64) float64    { return quantile(d.sorted(), q) }
func (d *dist) median() float64        { return d.q(0.5) }

// tail returns the value at the percentile the tail rule allows, and
// that percentile; NaN when the sample is too small for any.
func (d *dist) tail() (value, q float64) {
	q = tailQuantile(d.n())
	if q == 0 {
		return math.NaN(), 0
	}
	return d.q(q), q
}

// in returns d's samples, recorded in nanoseconds, in unit.
func (d *dist) in(unit time.Duration) *dist {
	out := &dist{v: make([]float64, len(d.v))}
	for i, x := range d.v {
		out.v[i] = x / float64(unit)
	}
	return out
}

// medianOf returns the median of values (NaN when empty).
func medianOf(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
