package stats

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// LatencyHist is a lock-free log-bucketed latency histogram: 16
// sub-buckets per power-of-two octave (≤ ~6% relative error), sized
// for the full nanosecond range, safe for concurrent Record from many
// goroutines. The zero value is ready to use. It exists so long soak
// runs can report p50/p99/p999 with bounded memory instead of keeping
// every sample — a reservoir would blunt exactly the tail the p999
// gate watches.
type LatencyHist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
}

const (
	histSubBits = 4 // 16 sub-buckets per octave
	histSub     = 1 << histSubBits
	// Values below 2^(histSubBits+1) get exact buckets; above, one
	// bucket per (octave, mantissa-top-4-bits) pair up to 64-bit ns.
	histExact   = 2 * histSub
	histBuckets = histExact + (63-histSubBits)*histSub
)

// histBucket maps a nanosecond value onto its bucket index.
func histBucket(ns uint64) int {
	if ns < histExact {
		return int(ns)
	}
	exp := bits.Len64(ns) // ≥ histSubBits+2
	i := histExact + (exp-histSubBits-2)*histSub + int(ns>>(exp-histSubBits-1)) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histValue is the representative (midpoint) value of bucket i.
func histValue(i int) uint64 {
	if i < histExact {
		return uint64(i)
	}
	exp := (i-histExact)/histSub + histSubBits + 2
	m := uint64((i-histExact)%histSub + histSub)
	lo := m << (exp - histSubBits - 1)
	return lo + (uint64(1)<<(exp-histSubBits-1))/2
}

// Record adds one sample.
func (h *LatencyHist) Record(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.counts[histBucket(ns)].Add(1)
	h.n.Add(1)
}

// Count returns the number of recorded samples.
func (h *LatencyHist) Count() uint64 { return h.n.Load() }

// Merge adds o's counts into h (o keeps its counts).
func (h *LatencyHist) Merge(o *LatencyHist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
			h.n.Add(c)
		}
	}
}

// LatencyStats is a JSON-ready percentile snapshot of a LatencyHist,
// the shape every latency surface (introspect.Snapshot, the introspection
// plane, bench/'s traced runs) reports.
type LatencyStats struct {
	Count  uint64 `json:"count"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
	P999Ns int64  `json:"p999_ns"`
	MaxNs  int64  `json:"max_ns"`
}

// Stats snapshots the histogram's count and p50/p99/p999/max. Safe
// concurrently with Record; the percentiles are consistent to within
// the samples that land mid-snapshot.
func (h *LatencyHist) Stats() LatencyStats {
	s := LatencyStats{Count: h.n.Load()}
	if s.Count == 0 {
		return s
	}
	s.P50Ns = int64(h.Percentile(50))
	s.P99Ns = int64(h.Percentile(99))
	s.P999Ns = int64(h.Percentile(99.9))
	for i := histBuckets - 1; i >= 0; i-- {
		if h.counts[i].Load() != 0 {
			s.MaxNs = int64(histValue(i))
			break
		}
	}
	return s
}

// Percentile returns the approximate p-th percentile (0 < p ≤ 100) of
// the recorded samples, or 0 when the histogram is empty.
func (h *LatencyHist) Percentile(p float64) time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(n))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return time.Duration(histValue(i))
		}
	}
	return time.Duration(histValue(histBuckets - 1))
}
