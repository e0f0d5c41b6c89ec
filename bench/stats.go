package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailPercentiles are the tail percentiles a timing may be reported at,
// highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.90}

// tailPercentile picks the highest percentile that still has at least ten
// samples beyond it; ok is false when even p90 has fewer, and the timing is
// then reported as a median only.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median, with the quartiles computed the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method) — the
// figure the benchmark's bounds are held against.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(m)
}

// samples is a series of timed blocks, each marked disturbed when the
// hypervisor took CPU time from the virtual machine while it ran. On a shared
// box a neighbour's burst can slow a block several-fold; such a block
// measures the neighbour, and the cause is observable, so it is left out of
// the medians — unless too few undisturbed blocks remain to take one.
type samples struct {
	xs        []float64
	disturbed []bool
}

func (s *samples) add(x float64, disturbed bool) {
	s.xs = append(s.xs, x)
	s.disturbed = append(s.disturbed, disturbed)
}

// kept returns the undisturbed samples, or all of them when fewer than three
// or fewer than a quarter are undisturbed.
func (s *samples) kept() []float64 {
	var clean []float64
	for i, x := range s.xs {
		if !s.disturbed[i] {
			clean = append(clean, x)
		}
	}
	if len(clean) < 3 || 4*len(clean) < len(s.xs) {
		return s.xs
	}
	return clean
}

func (s *samples) median() float64 { return median(s.kept()) }
