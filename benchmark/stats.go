package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is set by a handful of outliers
// and does not repeat between runs.
const minBeyond = 10

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for an empty slice. xs need not be sorted.
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

// percentile returns the nearest-rank p-th percentile (50 < p < 100)
// of xs. It refuses when fewer than minBeyond samples lie beyond the
// returned one.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 50 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (50, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n) / 100)) // 1-based; p·n first keeps 99 % of 1000 at exactly 990
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// tailPercentile is the tail every end-to-end "tail" metric reports.
// p99 and p95 have enough samples on the serving workloads but swing
// several-fold between runs of this sandbox (fsync and scheduler
// stalls of 10–150 ms hit a handful of requests or none); p90 repeats
// about as well as the median. The higher rungs stay visible in the
// notes and as per-layer metrics.
const tailPercentile = 90

// tail returns the tailPercentile of xs, or the median (and p = 50)
// when too few samples lie beyond it.
func tail(xs []float64) (v, p float64) {
	if v, ok := statTail(xs); ok {
		return v, tailPercentile
	}
	return median(xs), 50
}

// p99 is the 99th percentile, or 0 when xs cannot support it.
func p99(xs []float64) float64 {
	v, _ := percentile(xs, 99)
	return v
}

// timed is one measurement with the instant it belongs to, in seconds
// on the run's clock (hostClock.since): for an open-loop latency the
// instant its request was due, for a closed-loop one the instant it
// completed, for a repetition of seconds the instant it began. Rounds
// on different children are seconds apart on this clock, so a slice
// never mixes two of them.
type timed struct {
	at float64
	v  float64
}

func values(xs []timed) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.v
	}
	return out
}

// Slice widths. A median needs a few dozen samples to sit still, which
// a quarter of a second gives at 200–300 requests/s; the tail
// percentile needs minBeyond samples past it, which takes a second.
const (
	medianSlice = 0.25
	viewSlice   = 0.5 // dashboard_read's rebuilt fleet view: ~85 a second
	tailSlice   = 1.0
	rateSlice   = 0.25
)

// minSliceSamples is how many samples a slice needs before its median
// counts: the first and last slice of a phase are cut short.
const minSliceSamples = 20

// minSlices is how many slices must yield a value before a quantile
// over them stands in for the statistic over all samples.
const minSlices = 4

// quantile returns the q-th quantile (0 ≤ q ≤ 1, linear between ranks)
// of xs, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := q * float64(len(s)-1)
	lo := int(k)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(k-float64(lo))
}

// quietShare is the share of a run every serving statistic is read
// from: its quietest quarter. What a shared host adds to a latency is
// never negative — a neighbour's burst, a journal commit, a core busy
// with someone else's work — and comes in stretches from a fraction of
// a second to minutes. A statistic over all samples moves with the
// share of the run such stretches cover; the lower quartile over slices
// holds still until they cover three quarters of it, and a slower
// program moves every slice. What the host takes outright (steal) is
// scaled out of every slice first: see hostClock.
const quietShare = 0.25

// minUnstolen is the least share of a slice's CPU time the machine must
// have got for the slice to count: of a slice the host took most of, a
// few ticks of busy time are left to scale by, and the result is noise
// (or a division by nothing).
const minUnstolen = 0.5

// quiet computes stat over each slice of the given width, scales it by
// the share of the slice's CPU time the host did not steal, and returns
// the lower quartile of the slices. stat reports false for a slice too
// thin to support it; with fewer than minSlices usable slices the
// statistic is taken over all samples, unscaled.
func quiet(h *hostClock, xs []timed, width float64, stat func([]float64) (float64, bool)) float64 {
	slices := map[int][]float64{}
	for _, x := range xs {
		k := int(x.at / width)
		slices[k] = append(slices[k], x.v)
	}
	var per []float64
	for k, vs := range slices {
		got := h.unstolen(float64(k)*width, float64(k+1)*width)
		if v, ok := stat(vs); ok && got >= minUnstolen {
			per = append(per, v*got)
		}
	}
	if len(per) < minSlices {
		v, _ := stat(values(xs))
		return v
	}
	return quantile(per, quietShare)
}

func statMedian(xs []float64) (float64, bool) { return median(xs), len(xs) >= minSliceSamples }

// statTail is the tailPercentile of a slice, where the slice supports it.
func statTail(xs []float64) (float64, bool) {
	v, err := percentile(xs, tailPercentile)
	return v, err == nil
}

// quietRate is the counterpart of quiet for a closed loop: events per
// second of unstolen time in each slice, upper quartile over the
// slices. A slice a phase only partly covers counts low and falls out
// of it.
func quietRate(h *hostClock, at []float64, width float64) float64 {
	counts := map[int]float64{}
	for _, t := range at {
		counts[int(t/width)]++
	}
	per := make([]float64, 0, len(counts))
	for k, n := range counts {
		if got := h.unstolen(float64(k)*width, float64(k+1)*width); got >= minUnstolen {
			per = append(per, n/width/got)
		}
	}
	return quantile(per, 1-quietShare)
}

// unstretched is the counterpart of quiet's scaling for operations of
// seconds (at = when it began, v = how long it took, in ms): each
// scaled by the share of its own CPU time the host did not steal. The
// set-up times are read this way; they allocate and copy as much as
// they compute, and the speed of the cores says little about them.
func unstretched(h *hostClock, xs []timed) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.v * max(minUnstolen, h.unstolen(x.at, x.at+x.v/1000))
	}
	return out
}

// atFullSpeed restates operations of seconds that compute throughout (a
// restart, a batch pass) as what they would have taken on cores nobody
// else contends for: each is scaled by what the host did not steal and
// by the speed the cores had over its own interval (hostClock.speed).
// The workloads that repeat such an operation report the median of
// these; hostClock's comment has what that did to two sets of ten runs.
func atFullSpeed(h *hostClock, xs []timed) []float64 {
	out := unstretched(h, xs)
	for i, x := range xs {
		out[i] *= h.speed(x.at, x.at+x.v/1000)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a counter that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ladderNote renders the median and every supported higher percentile,
// for the notes of a result: the reader sees the shape of the tail, not
// only the one percentile a metric reports.
func ladderNote(xs []float64) string {
	out := fmt.Sprintf("n=%d p50=%.3f", len(xs), median(xs))
	for _, p := range []float64{75, 90, 95, 99} {
		if v, err := percentile(xs, p); err == nil {
			out += fmt.Sprintf(" p%g=%.3f", p, v)
		}
	}
	return out
}
