// Package eval provides the paper's evaluation metrics: Exact Match, token
// F1 and coverage for phrase mining (Tables 5–6), and macro/micro/weighted
// F1 for key-element recognition (Table 7).
package eval

import (
	"strings"

	"giant/internal/nlp"
)

// PhraseScore holds per-example phrase-mining metrics.
type PhraseScore struct {
	EM  float64
	F1  float64
	COV float64
}

// normalizePhrase lower-cases, tokenizes and drops pure punctuation.
func normalizePhrase(p string) []string {
	toks := nlp.Tokenize(p)
	out := toks[:0]
	for _, t := range toks {
		if t == "?" || t == "!" || t == "." || t == "," || t == ":" {
			continue
		}
		out = append(out, t)
	}
	return out
}

// ExactMatch is 1 when the normalized predictions coincide.
func ExactMatch(pred, gold string) float64 {
	p := normalizePhrase(pred)
	g := normalizePhrase(gold)
	if len(p) != len(g) || len(p) == 0 {
		if len(p) == 0 && len(g) == 0 {
			return 1
		}
		return 0
	}
	for i := range p {
		if p[i] != g[i] {
			return 0
		}
	}
	return 1
}

// TokenF1 measures bag-of-token overlap between prediction and gold (the
// SQuAD-style F1 of [52]).
func TokenF1(pred, gold string) float64 {
	p := normalizePhrase(pred)
	g := normalizePhrase(gold)
	if len(p) == 0 || len(g) == 0 {
		if len(p) == len(g) {
			return 1
		}
		return 0
	}
	counts := map[string]int{}
	for _, t := range g {
		counts[t]++
	}
	overlap := 0
	for _, t := range p {
		if counts[t] > 0 {
			counts[t]--
			overlap++
		}
	}
	if overlap == 0 {
		return 0
	}
	prec := float64(overlap) / float64(len(p))
	rec := float64(overlap) / float64(len(g))
	return 2 * prec * rec / (prec + rec)
}

// EvaluatePhrases aggregates EM/F1/COV over (pred, gold) pairs. Following
// the paper, EM and F1 average over ALL examples (empty predictions score
// 0), and COV is the fraction of non-empty predictions.
func EvaluatePhrases(preds, golds []string) PhraseScore {
	var s PhraseScore
	n := float64(len(golds))
	if n == 0 {
		return s
	}
	for i := range golds {
		pred := preds[i]
		if strings.TrimSpace(pred) != "" {
			s.COV++
			s.EM += ExactMatch(pred, golds[i])
			s.F1 += TokenF1(pred, golds[i])
		}
	}
	s.EM /= n
	s.F1 /= n
	s.COV /= n
	return s
}

// MultiClassScore holds Table 7's three F1 aggregates.
type MultiClassScore struct {
	Macro    float64
	Micro    float64
	Weighted float64
}

// MultiClassF1 computes macro, micro and support-weighted F1 over integer
// class predictions (classes 0..k-1).
func MultiClassF1(pred, gold []int, k int) MultiClassScore {
	tp := make([]float64, k)
	fp := make([]float64, k)
	fn := make([]float64, k)
	support := make([]float64, k)
	for i := range gold {
		g, p := gold[i], pred[i]
		support[g]++
		if p == g {
			tp[g]++
		} else {
			fp[p]++
			fn[g]++
		}
	}
	var score MultiClassScore
	var sumF1, sumW, totalSupport, totTP, totFP, totFN float64
	classes := 0.0
	for c := 0; c < k; c++ {
		f1 := f1Of(tp[c], fp[c], fn[c])
		sumF1 += f1
		sumW += f1 * support[c]
		totalSupport += support[c]
		totTP += tp[c]
		totFP += fp[c]
		totFN += fn[c]
		classes++
	}
	if classes > 0 {
		score.Macro = sumF1 / classes
	}
	score.Micro = f1Of(totTP, totFP, totFN)
	if totalSupport > 0 {
		score.Weighted = sumW / totalSupport
	}
	return score
}

func f1Of(tp, fp, fn float64) float64 {
	if tp == 0 {
		return 0
	}
	prec := tp / (tp + fp)
	rec := tp / (tp + fn)
	return 2 * prec * rec / (prec + rec)
}
