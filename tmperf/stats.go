package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// latHist is a lock-free log-linear latency histogram: 64 sub-buckets
// per power of two, so a quantile reads within about 1.6% of the value.
// FireHook records into it from the drivers without a lock.
type latHist struct {
	buckets [64 * 64]atomic.Int64
	max     atomic.Int64
}

func latBucket(ns int64) int {
	if ns < 64 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 7
	return (shift+1)*64 + int((uint64(ns)>>uint(shift))&63)
}

// latLow is the smallest value in bucket b.
func latLow(b int) int64 {
	if b < 64 {
		return int64(b)
	}
	shift := b/64 - 1
	return (int64(64) | int64(b%64)) << uint(shift)
}

func (h *latHist) observe(d time.Duration) {
	ns := int64(d)
	h.buckets[latBucket(ns)].Add(1)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			return
		}
	}
}

// merge adds o's samples to h.
func (h *latHist) merge(o *latHist) {
	for i := range o.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	if m := o.max.Load(); m > h.max.Load() {
		h.max.Store(m)
	}
}

func (h *latHist) count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// quantile returns the q-quantile in nanoseconds (the midpoint of the
// bucket holding it).
func (h *latHist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			lo := latLow(i)
			hi := latLow(i + 1)
			return float64(lo+hi) / 2
		}
	}
	return float64(h.max.Load())
}

// durations is a slice of timed samples.
type durations []time.Duration

// quantile reads the q-quantile by the nearest-rank rule.
func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of a float sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mix is the splitmix64 finalizer; firing checksums sum mix(trigger,
// token) over firings so the order drivers fire in does not matter.
func mix(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 ^ b
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
