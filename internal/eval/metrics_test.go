package eval

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExactMatch(t *testing.T) {
	cases := []struct {
		pred, gold string
		want       float64
	}{
		{"economy cars", "economy cars", 1},
		{"Economy Cars", "economy cars", 1},   // case folded
		{"economy cars ?", "economy cars", 1}, // punctuation dropped
		{"economy car", "economy cars", 0},
		{"cars economy", "economy cars", 0}, // order matters
		{"", "economy cars", 0},
	}
	for _, c := range cases {
		if got := ExactMatch(c.pred, c.gold); got != c.want {
			t.Fatalf("ExactMatch(%q,%q) = %v, want %v", c.pred, c.gold, got, c.want)
		}
	}
}

func TestTokenF1(t *testing.T) {
	if got := TokenF1("economy cars", "economy cars"); got != 1 {
		t.Fatalf("perfect F1 = %v", got)
	}
	// pred has 1 of 2 gold tokens and 1 extra: P=0.5, R=0.5, F1=0.5.
	if got := TokenF1("economy trucks", "economy cars"); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("partial F1 = %v", got)
	}
	if got := TokenF1("nothing shared", "economy cars"); got != 0 {
		t.Fatalf("zero F1 = %v", got)
	}
	// Order-insensitive.
	if got := TokenF1("cars economy", "economy cars"); got != 1 {
		t.Fatalf("bag F1 = %v", got)
	}
}

func TestTokenF1SymmetricBounded(t *testing.T) {
	f := func(a, b string) bool {
		v := TokenF1(a, b)
		if v < 0 || v > 1 {
			return false
		}
		return math.Abs(v-TokenF1(b, a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluatePhrases(t *testing.T) {
	preds := []string{"economy cars", "", "wrong phrase"}
	golds := []string{"economy cars", "luxury cars", "economy cars"}
	s := EvaluatePhrases(preds, golds)
	if math.Abs(s.EM-1.0/3.0) > 1e-9 {
		t.Fatalf("EM = %v", s.EM)
	}
	if math.Abs(s.COV-2.0/3.0) > 1e-9 {
		t.Fatalf("COV = %v", s.COV)
	}
	if s.F1 <= s.EM-1e-9 {
		t.Fatalf("F1 (%v) should be >= EM (%v)", s.F1, s.EM)
	}
}

func TestMultiClassF1Perfect(t *testing.T) {
	s := MultiClassF1([]int{0, 1, 2, 1}, []int{0, 1, 2, 1}, 3)
	if s.Macro != 1 || s.Micro != 1 || s.Weighted != 1 {
		t.Fatalf("perfect score = %+v", s)
	}
}

func TestMultiClassF1Imbalanced(t *testing.T) {
	// 8 of class 0 (all right), 2 of class 1 (all wrong → predicted 0).
	gold := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1}
	pred := []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	s := MultiClassF1(pred, gold, 2)
	// Class 0: P=0.8 R=1 F1≈0.889; class 1: F1=0.
	if math.Abs(s.Macro-0.4444444) > 1e-4 {
		t.Fatalf("macro = %v", s.Macro)
	}
	if math.Abs(s.Micro-0.8) > 1e-9 {
		t.Fatalf("micro = %v", s.Micro)
	}
	// Weighted leans toward the majority class.
	if s.Weighted <= s.Macro {
		t.Fatalf("weighted (%v) should exceed macro (%v) here", s.Weighted, s.Macro)
	}
}
