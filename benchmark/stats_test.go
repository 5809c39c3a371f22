package main

import (
	"math"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p*100, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: %g", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: %g", got)
	}
}

// With exactly one op in five slow, the p90 of a round is the median of
// the slow ops — the property single_cached and routed_ingest rest on.
func TestP90OfAnEightyTwentyRoundIsTheMedianMinorOp(t *testing.T) {
	var lat, slow []float64
	for i := 0; i < 100; i++ {
		if i%5 == 4 {
			v := 100 + float64(i)
			lat, slow = append(lat, v), append(slow, v)
		} else {
			lat = append(lat, 1+float64(i)/1000)
		}
	}
	r := summarizeRound(lat, 1, 0)
	if want := percentile(slow, 0.5); r.p90 != want {
		t.Fatalf("p90 = %g, median slow op = %g", r.p90, want)
	}
	if r.p50 >= 2 {
		t.Fatalf("p50 = %g is not a fast op", r.p50)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd: %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: %g", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestMedianOfRoundsIgnoresOneDisturbedRound(t *testing.T) {
	rounds := []roundStats{
		{ops: 100, wallS: 1.00, p50: 1.0, p90: 5.0, cpuMs: 200},
		{ops: 100, wallS: 1.02, p50: 1.1, p90: 5.1, cpuMs: 210},
		{ops: 100, wallS: 9.00, p50: 9.0, p90: 90., cpuMs: 900}, // a noisy neighbour
		{ops: 100, wallS: 0.98, p50: 0.9, p90: 4.9, cpuMs: 190},
		{ops: 100, wallS: 1.01, p50: 1.0, p90: 5.0, cpuMs: 205},
	}
	m := medianOfRounds(rounds)
	if m.p50 != 1.0 || m.p90 != 5.0 {
		t.Errorf("p50 %g p90 %g", m.p50, m.p90)
	}
	if math.Abs(m.opsPerS-100/1.01) > 1e-9 {
		t.Errorf("ops/s %g", m.opsPerS)
	}
	if m.cpuMsPerOp != 2.05 {
		t.Errorf("cpu/op %g", m.cpuMsPerOp)
	}
}

func TestRoundsScaleWithSecondsAndNeverDropBelowFive(t *testing.T) {
	if got := rounds(runSeconds, 8); got != 8 {
		t.Errorf("at run_seconds: %d", got)
	}
	if got := rounds(2*runSeconds, 5); got != 10 {
		t.Errorf("twice as long: %d", got)
	}
	if got := rounds(1, 8); got != 5 {
		t.Errorf("floor: %d", got)
	}
}
