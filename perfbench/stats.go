package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidates for a tail latency, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tail is a tail-latency report: the highest candidate percentile that
// leaves at least ten samples beyond it, the value there and the sample
// count it was taken from.
type tail struct {
	Pct   float64
	Value float64
	N     int
	short bool // fewer than twenty samples: the median stands in
}

// tailOf picks the highest percentile of tailPercentiles with at least ten
// samples beyond it. With fewer than twenty samples not even the median
// qualifies; the median is reported then, flagged as short, so the figure
// does not jump between the maximum and the median as the sample count
// crosses twenty.
func tailOf(xs []float64) tail {
	n := len(xs)
	for _, p := range tailPercentiles {
		beyond := n - int(math.Ceil(p/100*float64(n)))
		if beyond >= 10 {
			return tail{Pct: p, Value: quantile(xs, p/100), N: n}
		}
	}
	return tail{Pct: 50, Value: quantile(xs, 0.5), N: n, short: true}
}

func (t tail) String() string {
	if t.short {
		return fmt.Sprintf("p50 of n=%d (too few samples for ten beyond any tail percentile)", t.N)
	}
	return fmt.Sprintf("p%g of n=%d", t.Pct, t.N)
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
