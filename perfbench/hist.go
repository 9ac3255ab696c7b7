package main

import (
	"math"
	"math/bits"
)

// subBits sets the histogram's resolution: 2^subBits buckets per power of
// two, so a quantile read from it is within 1/64 of the recorded value.
const subBits = 6

// hist is a log-linear histogram of durations in nanoseconds. It has a fixed
// size, so recording never allocates and the heap measured at the end of a
// run does not grow with the number of samples.
type hist struct {
	counts [(64 - subBits) << subBits]uint64
	n      uint64
	sum    float64
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - subBits - 1
	return (e+1)<<subBits + int(uint64(v)>>uint(e)) - 1<<subBits
}

// bucketRange returns the lowest value that falls in bucket i and the
// bucket's width.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	e := i>>subBits - 1
	m := i&(1<<subBits-1) + 1<<subBits
	return math.Ldexp(float64(m), e), math.Ldexp(1, e)
}

func (h *hist) add(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += float64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds it. An empty histogram reads 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}
