package main

import (
	"fmt"
	"os"
	"strings"
)

// selfcheckSuites is how many times each of the two sides runs the suite.
// The reference box drifts between faster and slower phases that last
// minutes, so two single runs minutes apart can differ by more than any
// bound while the benchmark itself repeats within 1 %; three suites a side,
// the sides taking turns, put both medians under the same weather.
const selfcheckSuites = 3

// exactInfo are the ungated values that must be identical in every run of
// one commit.
var exactInfo = []string{"out.fingerprint", "ontology.nodes_final", "ontology.edges_final", "serve.cache.hit_ratio"}

// runSelfcheck is the benchmark's own test of its steadiness. It runs the
// untraced suite 2 x selfcheckSuites times, alternately for side A and side
// B and alternately in forward and reverse workload order, and fails if any
// gated metric's two medians differ by more than its bound, or any exact
// value differs at all. When it fails, lengthen the rounds or add rounds.
func runSelfcheck(cfg runConfig) error {
	cfg.trace = false
	var sides [2]map[string][]*report
	sides[0], sides[1] = map[string][]*report{}, map[string][]*report{}
	for i := 0; i < 2*selfcheckSuites; i++ {
		order := append([]workloadSpec(nil), workloadSpecs...)
		if i%2 == 1 {
			for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
				order[l], order[r] = order[r], order[l]
			}
		}
		for _, w := range order {
			c := cfg
			c.workload = w.name
			c.seed = cfg.seed + int64(i/2) // each side sees the same seeds
			rep, err := runAndPrint(c)
			if err != nil {
				return err
			}
			if !rep.correct() {
				return fmt.Errorf("selfcheck: %s was incorrect in suite %d: %s", w.name, i+1, strings.Join(rep.problems, "; "))
			}
			sides[i%2][w.name] = append(sides[i%2][w.name], rep)
		}
	}
	medianOf := func(reps []*report, metric string) float64 {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = r.metrics[metric]
		}
		return median(vals)
	}
	var failures []string
	fmt.Fprintf(os.Stderr, "\n== selfcheck: medians of %d suites a side; side A ran suites 1,3,5 (forward order), side B suites 2,4,6 (reverse order)\n", selfcheckSuites)
	fmt.Fprintf(os.Stderr, "  %-16s %-14s %14s %14s %8s %7s\n", "workload", "metric", "side A", "side B", "differ", "bound")
	for _, w := range workloadSpecs {
		a, b := sides[0][w.name], sides[1][w.name]
		for _, s := range endToEndSpecs {
			x, y := medianOf(a, s.name), medianOf(b, s.name)
			differ := max(x, y)/min(x, y) - 1
			verdict := "ok"
			if differ > s.bound {
				verdict = "FAIL"
				failures = append(failures, fmt.Sprintf("%s %s: %.4g vs %.4g differ by %.1f%% (bound %.0f%%)", w.name, s.name, x, y, 100*differ, 100*s.bound))
			}
			fmt.Fprintf(os.Stderr, "  %-16s %-14s %14.4f %14.4f %7.1f%% %6.0f%% %s\n", w.name, s.name, x, y, 100*differ, 100*s.bound, verdict)
		}
		for _, k := range exactInfo {
			want, ok := a[0].info[k]
			if !ok {
				continue
			}
			same := true
			for _, r := range append(append([]*report(nil), a...), b...) {
				same = same && r.info[k] == want
			}
			if !same {
				failures = append(failures, fmt.Sprintf("%s %s is not identical in every run", w.name, k))
			} else {
				fmt.Fprintf(os.Stderr, "  %-16s %-22s %20.4f identical in all %d runs\n", w.name, k, want, len(a)+len(b))
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(os.Stderr, "selfcheck passed: every gated metric's medians agree within its bound")
	return nil
}
