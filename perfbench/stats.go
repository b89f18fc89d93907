package main

import (
	"math"
	"sort"
)

// tailLadder is the percentile ladder the tail of a timing is read from,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail read off fewer samples is noise.
const minBeyond = 10

// dist summarizes one timing: its median and its highest percentile that
// has at least minBeyond samples beyond it.  With too few samples for any
// rung of the ladder the tail is the maximum (TailPct 100).
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
}

// summarize computes the dist of xs (which it does not modify).
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: median(s), Tail: s[len(s)-1], TailPct: 100}
	for _, p := range tailLadder {
		i := rankIndex(len(s), p)
		if len(s)-1-i >= minBeyond {
			d.Tail, d.TailPct = s[i], p
			break
		}
	}
	return d
}

// rankIndex is the nearest-rank index of percentile p among n sorted
// samples: the smallest index with at least p% of the samples at or
// below it.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// percentile is the nearest-rank p-th percentile of xs (which it does
// not modify), for timings whose sample count varies from run to run and
// so must not pick their rung off the ladder.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// median of an already sorted slice.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
