package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API. Spans of one benchmark
// op share its op id; Parent is the id of the span that caused this one
// (-1 for the op's root, which is always the real end-to-end call).
//
// The layers under test run in other processes (giantd, giantrouter) or
// behind private functions (giant.Build), so most child spans are REPLAYS:
// the harness repeats, in-process and right after the parent returned, the
// same public call the parent made internally. A replayed child therefore
// lies after its parent on the clock instead of inside it; self time is
// defined on durations so that both kinds read the same way.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer keeps spans in memory (preallocated) and writes them out once, at
// the end of the run. It is safe for concurrent begin/end: the routed
// workload's fan-out RoundTripper records upstream calls from several
// goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent, op int) int {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// time runs fn inside a span and returns the span's id.
func (t *tracer) time(name string, parent, op int, fn func()) int {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
	return id
}

// replayRuns is how often bestOf repeats a replay.
const replayRuns = 3

// bestOf runs record replayRuns times and keeps the spans of the run whose
// spans add up to the least time. The first span record begins gets the
// same id every time, so other spans may refer to it whichever run is
// kept; every span record begins must have ended when record returns.
func (t *tracer) bestOf(record func()) {
	mark := len(t.spans)
	total := func(spans []span) (ns int64) {
		for _, s := range spans {
			ns += s.EndNs - s.StartNs
		}
		return ns
	}
	var best []span
	for run := 0; run < replayRuns; run++ {
		t.spans = t.spans[:mark]
		record()
		if best == nil || total(t.spans[mark:]) < total(best) {
			best = append([]span(nil), t.spans[mark:]...)
		}
	}
	t.spans = append(t.spans[:mark], best...)
}

// covered returns the total length in ns of the union of the given spans'
// intervals, so that concurrent children (the two training runs inside
// Build, a router fan-out) are not counted twice.
func covered(children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, len(children))
	for i, c := range children {
		iv[i] = [2]int64{c.StartNs, c.EndNs}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// selfTimes returns, per span id, the span's duration minus the time its
// direct children cover, in ms, so that self plus children always equals
// the span. A replayed child can outrun the parent it stands for, which
// makes that parent's self time negative; selfSumError measures how much
// of that there is.
func selfTimes(spans []span) []float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = float64(s.EndNs-s.StartNs-covered(kids[s.ID])) / 1e6
	}
	return self
}

// selfSumError is the trace's accounting check. Had every child run
// inside its parent, no self time could be negative and non-negative self
// times plus children would sum to the parents exactly; the negative self
// times are therefore the sum's whole error. It returns the largest share
// they take of one span name's total time, and that name.
func selfSumError(spans []span) (worst float64, name string) {
	self := selfTimes(spans)
	total := map[string]float64{}
	over := map[string]float64{}
	for _, s := range spans {
		total[s.Name] += s.ms()
		if self[s.ID] < 0 {
			over[s.Name] -= self[s.ID]
		}
	}
	for n, tot := range total {
		if tot > 0 && over[n]/tot > worst {
			worst, name = over[n]/tot, n
		}
	}
	return worst, name
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// finishTrace writes the span file and fills in what every traced run
// reports about itself. overhead is the traced p50 over the untraced p50 of
// like ops; untraced are the untraced pass's latencies in ms.
func finishTrace(cfg runConfig, rep *report, tr *tracer, overhead float64, untraced []float64) error {
	path := filepath.Join(cfg.workDir, "trace-"+cfg.workload+".jsonl")
	if err := tr.writeJSONL(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans -> %s\n", len(tr.spans), path)
	sort.Float64s(untraced)
	m := rep.metrics
	m["trace.overhead_ratio"] = overhead
	m["trace.self_sum_error"], _ = selfSumError(tr.spans)
	m["client.p99_ms"], m["client.max_ms"] = percentile(untraced, 0.99), percentile(untraced, 1)
	m["fail_ratio"] = float64(rep.tally.failed()) / float64(rep.tally.attempted)
	rep.info["trace.spans"] = float64(len(tr.spans))
	return nil
}

// spanIndex is a finished trace with its self times, for metric
// extraction.
type spanIndex struct {
	spans []span
	self  []float64
}

func indexSpans(spans []span) *spanIndex {
	return &spanIndex{spans: spans, self: selfTimes(spans)}
}

// durations returns the ms durations of every span called name whose op
// satisfies keep (nil keeps all).
func (ix *spanIndex) durations(name string, keep func(op int) bool) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Name == name && (keep == nil || keep(s.Op)) {
			out = append(out, s.ms())
		}
	}
	return out
}

// selves is durations for self times.
func (ix *spanIndex) selves(name string, keep func(op int) bool) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Name == name && (keep == nil || keep(s.Op)) {
			out = append(out, ix.self[s.ID])
		}
	}
	return out
}
