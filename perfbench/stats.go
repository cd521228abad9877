package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks. xs is sorted in place. An empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencyMetrics sets route_p50_us and route_p99_us over every latency
// sample (µs) of the measuring phase, so a stall anywhere in the run shows in
// its tail. Beside them it prints, as a diagnostic, the same percentiles as
// the median over windows of each window's percentile: a p99 far above its
// windowed value means the tail came from stalls in a few windows (a
// collection, the machine), not from the steady cost of the operation.
func latencyMetrics(m metrics, workload string, at, us []float64, span float64) {
	wp50 := windowed(at, us, span, windows, 0.5, 50)
	wp99 := windowed(at, us, span, windows, 0.99, 500)
	all := append([]float64(nil), us...)
	m.set("route_p50_us", quantile(all, 0.5), "us")
	m.set("route_p99_us", quantile(all, 0.99), "us")
	fmt.Printf("%s: route p50 %.1f us, p99 %.1f us over %d samples; windowed (median of %d windows) p50 %.1f us, p99 %.1f us\n",
		workload, m["route_p50_us"].Value, m["route_p99_us"].Value, len(us), windows, wp50, wp99)
}

// windowed splits a time series of (timestamp, value) samples into nw equal
// windows over [0, span) and returns the median over windows of each window's
// q-quantile. Windows with fewer than minN samples are skipped; if every
// window is skipped the plain quantile of all samples is returned.
func windowed(at, vals []float64, span float64, nw int, q float64, minN int) float64 {
	buckets := make([][]float64, nw)
	for i, t := range at {
		w := int(t / span * float64(nw))
		if w < 0 {
			w = 0
		}
		if w >= nw {
			w = nw - 1
		}
		buckets[w] = append(buckets[w], vals[i])
	}
	var per []float64
	for _, b := range buckets {
		if len(b) >= minN {
			per = append(per, quantile(b, q))
		}
	}
	if len(per) == 0 {
		all := append([]float64(nil), vals...)
		return quantile(all, q)
	}
	return median(per)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
