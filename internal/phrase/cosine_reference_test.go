package phrase

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// cosineReference is Cosine as it was before sparse vectors were sorted
// once into a Sorted: both key sets sorted per call, the dot product summed
// over a's keys with map lookups into b.
func cosineReference(a, b map[string]float64) float64 {
	keys := func(m map[string]float64) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	var dot, na, nb float64
	for _, k := range keys(a) {
		v := a[k]
		na += v * v
		if w, ok := b[k]; ok {
			dot += v * w
		}
	}
	for _, k := range keys(b) {
		nb += b[k] * b[k]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// TestCosineMatchesReference holds the merge-join Cosine to the reference
// bit for bit on random overlapping vectors, zero and empty ones included.
func TestCosineMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	vec := func() map[string]float64 {
		m := map[string]float64{}
		for n := r.Intn(12); n > 0; n-- {
			w := r.ExpFloat64()
			if r.Intn(8) == 0 {
				w = 0
			}
			m[fmt.Sprintf("k%02d", r.Intn(30))] = w
		}
		return m
	}
	for i := 0; i < 5000; i++ {
		a, b := vec(), vec()
		got, want := Cosine(a, b), cosineReference(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Cosine(%v, %v) = %v, reference %v", a, b, got, want)
		}
	}
}
