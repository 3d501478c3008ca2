package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail figure resting on fewer is one slow request, not a
// tail.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of ds by the
// nearest-rank rule, and false when fewer than minBeyond samples lie
// beyond it. ds is sorted in place.
func percentile(ds []time.Duration, p float64) (time.Duration, bool) {
	n := len(ds)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[rank-1], true
}

// median is the middle of ds (the mean of the middle two for an even
// count), reported from any non-empty set with its sample count.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open [start, end) span of monotonic nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of outer the union of ins covers. Children
// are clipped to outer and overlapping children count once, which is what
// self time needs when a pipeline's reader, kernel and writer stages run
// at the same time.
func covered(outer interval, ins []interval) int64 {
	clipped := make([]interval, 0, len(ins))
	for _, in := range ins {
		s, e := max(in.start, outer.start), min(in.end, outer.end)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	open := false
	for _, c := range clipped {
		switch {
		case !open:
			curS, curE, open = c.start, c.end, true
		case c.start <= curE:
			curE = max(curE, c.end)
		default:
			total += curE - curS
			curS, curE = c.start, c.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is outer's length minus the part its children cover.
func selfTime(outer interval, children []interval) int64 {
	return outer.end - outer.start - covered(outer, children)
}
