package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/metrics"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear interpolation
// between order statistics; 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return metrics.Percentile(xs, 100*p)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance procedure computes spreads with. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// ms converts a duration to float milliseconds at nanosecond resolution.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// poissonSchedule returns the arrival offsets of a Poisson process of the
// given rate over [0, span), conditioned on its count being exactly
// round(rate × span): n+1 exponential gaps are drawn and scaled so the
// (n+1)-th arrival would land on span, which leaves the first n distributed
// as the order statistics of n uniform points — what Poisson arrivals are
// once their number is known. Fixing the count keeps the offered load, and
// with it goodput_rps, from wandering ±1/√n between seeds. It is a pure
// function of (seed, rate, span).
func poissonSchedule(seed int64, rate float64, span time.Duration) []time.Duration {
	n := int(math.Round(rate * span.Seconds()))
	rng := rand.New(rand.NewSource(seed))
	cum := make([]float64, n+1)
	t := 0.0
	for i := range cum {
		t += rng.ExpFloat64()
		cum[i] = t
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(cum[i] / cum[n] * float64(span))
	}
	return out
}
