package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs; 0 for an empty slice.
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

// windowed collects samples into fixed-length windows of run time, so
// a figure can be computed per window and reduced to its median: one
// GC pause or rebuild then moves one window, not the reported value.
type windowed struct {
	width time.Duration
	wins  [][]float64
}

func newWindowed(width time.Duration) *windowed { return &windowed{width: width} }

func (w *windowed) add(at time.Duration, x float64) {
	i := int(at / w.width)
	for len(w.wins) <= i {
		w.wins = append(w.wins, nil)
	}
	w.wins[i] = append(w.wins[i], x)
}

func (w *windowed) merge(o *windowed) {
	for i, xs := range o.wins {
		for len(w.wins) <= i {
			w.wins = append(w.wins, nil)
		}
		w.wins[i] = append(w.wins[i], xs...)
	}
}

// all returns every sample of every window.
func (w *windowed) all() []float64 {
	var out []float64
	for _, xs := range w.wins {
		out = append(out, xs...)
	}
	return out
}

// full returns the windows that hold at least minSamples samples,
// dropping the partial tail window a phase ends in.
func (w *windowed) full(minSamples int) [][]float64 {
	var out [][]float64
	for _, xs := range w.wins {
		if len(xs) >= minSamples {
			out = append(out, xs)
		}
	}
	return out
}

// medianOfQuantile is the median over windows of each window's
// q-quantile.
func (w *windowed) medianOfQuantile(q float64, minSamples int) float64 {
	var per []float64
	for _, xs := range w.full(minSamples) {
		per = append(per, quantile(xs, q))
	}
	return median(per)
}

func (w *windowed) count() int {
	n := 0
	for _, xs := range w.wins {
		n += len(xs)
	}
	return n
}
