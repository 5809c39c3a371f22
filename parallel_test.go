package giant

// Equivalence and determinism tests for the parallel pipeline: any
// Parallelism value must produce the same ontology, and repeated builds with
// the same seed must be bit-for-bit reproducible. Run with -race to also
// exercise the concurrent mining and assembly paths for data races.

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"giant/internal/ontology"
)

// ontologyFingerprint renders the node and edge multisets in a canonical
// (ID-independent) order.
func ontologyFingerprint(t *testing.T, o *ontology.Snapshot) []string {
	t.Helper()
	var lines []string
	for _, n := range o.Nodes() {
		aliases := append([]string(nil), n.Aliases...)
		sort.Strings(aliases)
		lines = append(lines, fmt.Sprintf("node|%s|%s|%v|%s|%s|%d|%d",
			n.Type, n.Phrase, aliases, n.Trigger, n.Location, n.Day, n.FirstSeenDay))
	}
	for _, e := range o.Edges() {
		src, ok1 := o.Get(e.Src)
		dst, ok2 := o.Get(e.Dst)
		if !ok1 || !ok2 {
			t.Fatalf("dangling edge %+v", e)
		}
		lines = append(lines, fmt.Sprintf("edge|%s|%s|%s|%s|%s|%.6f",
			src.Type, src.Phrase, e.Type, dst.Type, dst.Phrase, e.Weight))
	}
	sort.Strings(lines)
	return lines
}

func ontologyJSON(t *testing.T, o *ontology.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := o.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestParallelBuildEquivalence asserts the parallel miner and assembler
// produce an ontology identical to the sequential path: same node/edge
// multiset and, because merge order is deterministic, the same node IDs and
// serialized bytes.
func TestParallelBuildEquivalence(t *testing.T) {
	cfg := TinyConfig()
	cfg.Parallelism = 1
	seq, err := Build(cfg)
	if err != nil {
		t.Fatalf("sequential Build: %v", err)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		// Force real fan-out even on a single-core runner: the worker pool
		// still interleaves goroutines, which is what -race needs to see.
		workers = 4
	}
	cfg.Parallelism = workers
	par, err := Build(cfg)
	if err != nil {
		t.Fatalf("parallel Build: %v", err)
	}

	seqFP, parFP := ontologyFingerprint(t, seq.Snapshot()), ontologyFingerprint(t, par.Snapshot())
	if len(seqFP) != len(parFP) {
		t.Fatalf("fingerprint sizes differ: sequential %d vs parallel %d", len(seqFP), len(parFP))
	}
	for i := range seqFP {
		if seqFP[i] != parFP[i] {
			t.Fatalf("ontology multisets diverge at entry %d:\n  sequential: %s\n  parallel:   %s", i, seqFP[i], parFP[i])
		}
	}
	if !bytes.Equal(ontologyJSON(t, seq.Snapshot()), ontologyJSON(t, par.Snapshot())) {
		t.Fatal("serialized ontologies differ between Parallelism=1 and parallel build")
	}
	if len(seq.Mined) != len(par.Mined) {
		t.Fatalf("mined counts differ: %d vs %d", len(seq.Mined), len(par.Mined))
	}
	for i := range seq.Mined {
		if seq.Mined[i].Phrase != par.Mined[i].Phrase || seq.Mined[i].Seed != par.Mined[i].Seed {
			t.Fatalf("mined[%d] differs: %q/%q vs %q/%q", i,
				seq.Mined[i].Phrase, seq.Mined[i].Seed, par.Mined[i].Phrase, par.Mined[i].Seed)
		}
	}
}

// TestBuildDeterminism asserts two parallel builds with the same seed are
// bit-for-bit identical — including the stats line giantctl build prints.
func TestBuildDeterminism(t *testing.T) {
	cfg := TinyConfig()
	cfg.Parallelism = runtime.GOMAXPROCS(0) + 3
	a, err := Build(cfg)
	if err != nil {
		t.Fatalf("first Build: %v", err)
	}
	b, err := Build(cfg)
	if err != nil {
		t.Fatalf("second Build: %v", err)
	}
	if !bytes.Equal(ontologyJSON(t, a.Snapshot()), ontologyJSON(t, b.Snapshot())) {
		t.Fatal("two builds with the same seed serialized differently")
	}
	// The giantctl build output line (fmt sorts map keys, so equal stats
	// means equal text).
	sa, sb := a.Snapshot().ComputeStats(), b.Snapshot().ComputeStats()
	la := fmt.Sprintf("built attention ontology: %v nodes, %v edges", sa.NodesByType, sa.EdgesByType)
	lb := fmt.Sprintf("built attention ontology: %v nodes, %v edges", sb.NodesByType, sb.EdgesByType)
	if la != lb {
		t.Fatalf("giantctl output lines differ:\n  %s\n  %s", la, lb)
	}
}

// TestMinerParallelismKnob checks the plumbing: Build honors the config knob
// and defaults to GOMAXPROCS.
func TestMinerParallelismKnob(t *testing.T) {
	cfg := TinyConfig()
	if got := cfg.parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default parallelism = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	cfg.Parallelism = 3
	if got := cfg.parallelism(); got != 3 {
		t.Fatalf("parallelism = %d, want 3", got)
	}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Miner.Parallelism != 3 {
		t.Fatalf("miner parallelism = %d, want 3", sys.Miner.Parallelism)
	}
}
