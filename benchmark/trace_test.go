package main

import (
	"math"
	"testing"
)

func sp(id, parent int, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Op: 0, Name: name, StartNs: start, EndNs: end}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	kids := []span{sp(1, 0, "a", 0, 10), sp(2, 0, "b", 5, 20), sp(3, 0, "c", 30, 40)}
	if got := covered(kids); got != 30 {
		t.Fatalf("covered = %d, want 30", got)
	}
	if covered(nil) != 0 {
		t.Fatal("no children cover nothing")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		sp(0, -1, "http", 0, 10*ms),
		sp(1, 0, "serve.handler", 20*ms, 26*ms), // a replay: after its parent on the clock
		sp(2, 1, "tagging.tag", 30*ms, 34*ms),
		sp(3, -1, "giant.Build", 0, 10*ms),
		sp(4, 3, "core.train_phrase", 100*ms, 106*ms), // side by side
		sp(5, 3, "core.train_key", 101*ms, 104*ms),
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{0: 4, 1: 2, 2: 4, 3: 4, 4: 6, 5: 3} {
		if math.Abs(self[id]-want) > 1e-9 {
			t.Errorf("self of span %d = %g ms, want %g", id, self[id], want)
		}
	}
	// Self plus what the children cover is the span again.
	if got := self[3] + float64(covered(spans[4:6]))/1e6; got != spans[3].ms() {
		t.Errorf("self + children = %g, span = %g", got, spans[3].ms())
	}
	if worst, _ := selfSumError(spans); worst != 0 {
		t.Errorf("no replay outran its parent, error = %g", worst)
	}
}

func TestSelfSumErrorIsTheShareOfNegativeSelfTime(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		sp(0, -1, "serve.handler", 0, 10*ms),
		sp(1, 0, "storytree.form", 20*ms, 31*ms), // outran its parent by 1 ms
		sp(2, -1, "serve.handler", 40*ms, 50*ms),
		sp(3, 2, "storytree.form", 60*ms, 69*ms),
	}
	worst, name := selfSumError(spans)
	if name != "serve.handler" || math.Abs(worst-1.0/20) > 1e-9 {
		t.Fatalf("error = %g on %q, want 0.05 on serve.handler", worst, name)
	}
}

func TestBestOfKeepsTheFastestRunWhole(t *testing.T) {
	tr := newTracer(8)
	tr.spans = append(tr.spans, sp(0, -1, "http", 0, 5))
	for _, durations := range [][][2]int64{
		{{9, 4}, {6, 3}, {7, 7}}, // parent, child: the second run is fastest
		{{5, 2}, {8, 8}, {6, 6}}, // the first
		{{9, 9}, {8, 8}, {4, 1}}, // the last
	} {
		want, run := durations[0], 0
		for _, d := range durations {
			if d[0]+d[1] < want[0]+want[1] {
				want = d
			}
		}
		mark := len(tr.spans)
		tr.bestOf(func() {
			d := durations[run]
			run++
			tr.spans = append(tr.spans, sp(mark, 0, "serve.handler", 100, 100+d[0]), sp(mark+1, mark, "tagging.tag", 200, 200+d[1]))
		})
		if run != replayRuns {
			t.Fatalf("record ran %d times", run)
		}
		got := tr.spans[mark:]
		if len(got) != 2 || got[0].EndNs-got[0].StartNs != want[0] || got[1].EndNs-got[1].StartNs != want[1] || got[1].Parent != mark {
			t.Fatalf("kept %+v, want durations %v", got, want)
		}
	}
}

func TestTracerAssignsIdsInBeginOrder(t *testing.T) {
	tr := newTracer(4)
	root := tr.time("http", -1, 9, func() {})
	child := tr.begin("serve.handler", root, 9)
	tr.end(child)
	if root != 0 || child != 1 || tr.spans[1].Parent != 0 || tr.spans[1].Op != 9 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if tr.spans[1].EndNs < tr.spans[1].StartNs || tr.spans[1].StartNs < tr.spans[0].EndNs {
		t.Fatalf("clock ran backwards: %+v", tr.spans)
	}
}
