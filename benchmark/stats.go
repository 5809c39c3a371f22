package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of vals,
// which must already be sorted ascending. Nearest rank never interpolates,
// so a percentile is always a latency some op really had.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle value of vals (mean of the two middle values
// for an even count) without modifying vals.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of vals (0 for none).
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// roundStats is what one timed round contributes: every timing metric is
// computed inside a round and only the median across rounds is reported,
// so one disturbed round cannot move a reported number.
type roundStats struct {
	ops      int
	wallS    float64
	p50, p90 float64 // ms
	p99, max float64 // ms, reported ungated
	cpuMs    float64 // user+sys of the system under test during the round
}

// summarizeRound turns one round's per-op latencies (ms, in issue order)
// into its roundStats. lat is sorted in place.
func summarizeRound(lat []float64, wallS, cpuMs float64) roundStats {
	sort.Float64s(lat)
	return roundStats{
		ops:   len(lat),
		wallS: wallS,
		p50:   percentile(lat, 0.50),
		p90:   percentile(lat, 0.90),
		p99:   percentile(lat, 0.99),
		max:   percentile(lat, 1),
		cpuMs: cpuMs,
	}
}

// roundMedians folds the timed rounds into the reported timing metrics.
type roundMedians struct {
	opsPerS, p50, p90, p99, max, cpuMsPerOp float64
}

func medianOfRounds(rounds []roundStats) roundMedians {
	col := func(f func(roundStats) float64) float64 {
		vals := make([]float64, len(rounds))
		for i, r := range rounds {
			vals[i] = f(r)
		}
		return median(vals)
	}
	return roundMedians{
		opsPerS:    col(func(r roundStats) float64 { return float64(r.ops) / r.wallS }),
		p50:        col(func(r roundStats) float64 { return r.p50 }),
		p90:        col(func(r roundStats) float64 { return r.p90 }),
		p99:        col(func(r roundStats) float64 { return r.p99 }),
		max:        col(func(r roundStats) float64 { return r.max }),
		cpuMsPerOp: col(func(r roundStats) float64 { return r.cpuMs / float64(r.ops) }),
	}
}

// measureRounds is the timed phase every workload shares: round 0 is the
// warm-up, rounds 1..timed are measured. Before each round the generator
// collects its own garbage; around each round the system under test's CPU
// clock is read. round sends round r's ops and returns their latencies in
// ms and the round's wall time. setupS runs from start to the first timed
// op.
func measureRounds(start time.Time, timed int, cpuMs func() float64, round func(r int) (lat []float64, wall time.Duration)) (setupS float64, stats []roundStats) {
	for r := 0; r <= timed; r++ {
		runtime.GC()
		cpu0 := cpuMs()
		if r == 1 {
			setupS = time.Since(start).Seconds()
		}
		lat, wall := round(r)
		if r > 0 {
			stats = append(stats, summarizeRound(lat, wall.Seconds(), cpuMs()-cpu0))
		}
	}
	return setupS, stats
}
