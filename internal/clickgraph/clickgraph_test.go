package clickgraph

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func sample() *Graph {
	g := New()
	g.Add("best cars", 1, "the best cars of 2019", 10, 0)
	g.Add("best cars", 2, "cars roundup review", 5, 0)
	g.Add("cars roundup", 2, "cars roundup review", 15, 1)
	g.Add("best cars", 1, "the best cars of 2019", 2, 0) // repeat accumulates
	return g
}

func TestClusterForSeedKept(t *testing.T) {
	g := sample()
	cl, ok := g.ClusterFor("best cars", DefaultWalkConfig())
	if !ok {
		t.Fatal("seed not found")
	}
	if len(cl.Queries) == 0 || cl.Queries[0].Text != "best cars" {
		t.Fatalf("seed should rank first: %+v", cl.Queries)
	}
	if len(cl.Titles) == 0 {
		t.Fatal("no titles in cluster")
	}
	// Weights must be non-increasing.
	for i := 1; i < len(cl.Titles); i++ {
		if cl.Titles[i].Weight > cl.Titles[i-1].Weight {
			t.Fatal("titles not sorted by weight")
		}
	}
}

func TestClusterSharesMajorityFilter(t *testing.T) {
	g := New()
	g.Add("alpha beta", 1, "doc one", 10, 0)
	g.Add("gamma delta", 1, "doc one", 10, 0) // co-clicked but unrelated text
	cl, _ := g.ClusterFor("alpha beta", WalkConfig{Steps: 3, Threshold: 0.0, MaxItems: 10})
	for _, q := range cl.Queries {
		if q.Text == "gamma delta" {
			t.Fatal("unrelated query leaked into cluster (majority non-stop filter)")
		}
	}
}

func TestClusterUnknownSeed(t *testing.T) {
	g := sample()
	if _, ok := g.ClusterFor("nope", DefaultWalkConfig()); ok {
		t.Fatal("unknown seed should fail")
	}
}

func TestClustersEnumeratesAllQueries(t *testing.T) {
	g := sample()
	cs := g.ClustersN(DefaultWalkConfig(), 1)
	if len(cs) != g.NumQueries() {
		t.Fatalf("clusters = %d, queries = %d", len(cs), g.NumQueries())
	}
}

func TestTopTitlesOrderedByClicks(t *testing.T) {
	g := sample()
	titles := g.TopTitlesFor("best cars", 5)
	if len(titles) != 2 || titles[0] != "the best cars of 2019" {
		t.Fatalf("TopTitlesFor = %v", titles)
	}
	if got := g.TopTitlesFor("best cars", 1); len(got) != 1 {
		t.Fatalf("k cap not applied: %v", got)
	}
}

func TestMaxItemsCap(t *testing.T) {
	g := New()
	for i := 0; i < 20; i++ {
		g.Add("common query", i, "shared title words", 1+i, 0)
	}
	cl, _ := g.ClusterFor("common query", WalkConfig{Steps: 2, Threshold: 0, MaxItems: 3})
	if len(cl.Titles) > 3 {
		t.Fatalf("MaxItems not applied: %d titles", len(cl.Titles))
	}
}

func TestAddNonPositiveClicks(t *testing.T) {
	g := New()
	g.Add("q", 1, "t", 0, 0) // should be clamped to 1
	if got := g.qEdges[0][0].clicks; got != 1 || g.qOut[0] != 1 || g.dOut[0] != 1 {
		t.Fatalf("clamped click weight: c(q,d) = %v, out = %v/%v", got, g.qOut[0], g.dOut[0])
	}
}

func TestWalkDeterministic(t *testing.T) {
	f := func(seed uint8) bool {
		g := sample()
		a, _ := g.ClusterFor("best cars", DefaultWalkConfig())
		b, _ := g.ClusterFor("best cars", DefaultWalkConfig())
		if len(a.Queries) != len(b.Queries) || len(a.Titles) != len(b.Titles) {
			return false
		}
		for i := range a.Queries {
			if a.Queries[i] != b.Queries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestClusterForBitDeterministic: many walkers reaching one node sum their
// contributions in a fixed order, so every walk of a seed is identical to
// the last bit. One seed, seven docs and six sibling queries that co-click
// overlapping docs make several walkers meet on every node; with sums
// accumulated in map-iteration order nearly every walk differed from the
// first one somewhere.
func TestClusterForBitDeterministic(t *testing.T) {
	g := New()
	for d := 0; d < 7; d++ {
		g.Add("best foldable phones", d, fmt.Sprintf("foldable phones review %d", d), 3+d, 0)
	}
	for q := 0; q < 6; q++ {
		query := fmt.Sprintf("foldable phones %d", q)
		for d := 0; d < 7; d++ {
			if (q+d)%3 != 0 {
				g.Add(query, d, fmt.Sprintf("foldable phones review %d", d), 1+(q*d)%5, 0)
			}
		}
	}
	cfg := WalkConfig{Steps: 3, Threshold: 0, MaxItems: 20}
	first, ok := g.ClusterFor("best foldable phones", cfg)
	if !ok {
		t.Fatal("seed not found")
	}
	for i := 0; i < 1000; i++ {
		if got, _ := g.ClusterFor("best foldable phones", cfg); !reflect.DeepEqual(got, first) {
			t.Fatalf("walk %d differs from the first walk:\n got %+v\nwant %+v", i, got, first)
		}
	}
}

func TestAdjacencyHelpers(t *testing.T) {
	g := sample()
	if got := g.DocsForQuery("best cars"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("DocsForQuery = %v", got)
	}
	if got := g.DocsForQuery("missing"); got != nil {
		t.Fatalf("DocsForQuery(missing) = %v", got)
	}
	if got := g.QueriesForDoc(2); len(got) != 2 || got[0] != "best cars" || got[1] != "cars roundup" {
		t.Fatalf("QueriesForDoc = %v", got)
	}
	if got := g.QueriesForDoc(99); got != nil {
		t.Fatalf("QueriesForDoc(99) = %v", got)
	}
}

func TestAffectedQueries(t *testing.T) {
	// Two disconnected components: cars (queries a,b) and phones (query c).
	g := New()
	g.Add("best cars", 1, "cars title", 3, 0)
	g.Add("cars roundup", 1, "cars title", 3, 0)
	g.Add("best phones", 2, "phones title", 3, 0)

	// A new click on doc 1: both cars queries are affected, phones is not.
	got := g.AffectedQueries(nil, []int{1}, 3)
	if len(got) != 2 || got[0] != "best cars" || got[1] != "cars roundup" {
		t.Fatalf("AffectedQueries(doc 1) = %v", got)
	}
	// Seeding from a query expands through shared docs.
	got = g.AffectedQueries([]string{"best cars"}, nil, 2)
	if len(got) != 2 {
		t.Fatalf("AffectedQueries(best cars) = %v", got)
	}
	// Zero hops keeps only the direct neighbourhood.
	got = g.AffectedQueries([]string{"best phones"}, nil, 0)
	if len(got) != 1 || got[0] != "best phones" {
		t.Fatalf("AffectedQueries hops=0 = %v", got)
	}
	// Unknown starting points affect nothing.
	if got := g.AffectedQueries([]string{"nope"}, []int{77}, 3); len(got) != 0 {
		t.Fatalf("AffectedQueries(unknown) = %v", got)
	}
}

// twoComponents builds a graph with two disconnected components: cars
// (queries best cars / cars roundup on doc 1) and phones (best phones on
// doc 2).
func twoComponents() *Graph {
	g := New()
	g.Add("best cars", 1, "cars title", 3, 0)
	g.Add("cars roundup", 1, "cars title", 3, 0)
	g.Add("best phones", 2, "phones title", 3, 0)
	return g
}

// TestAffectedQueriesEmptyBatch: a batch with no recognizable queries or
// docs affects nothing.
func TestAffectedQueriesEmptyBatch(t *testing.T) {
	g := twoComponents()
	if got := g.AffectedQueries(nil, nil, 3); len(got) != 0 {
		t.Fatalf("empty batch affected %v", got)
	}
	if got := g.AffectedQueries([]string{}, []int{}, 0); len(got) != 0 {
		t.Fatalf("empty slices affected %v", got)
	}
}

// TestAffectedQueriesDocWithoutQueries: a doc ID the graph has never seen
// (no query references it) contributes nothing — and does not panic.
func TestAffectedQueriesDocWithoutQueries(t *testing.T) {
	g := twoComponents()
	if got := g.AffectedQueries(nil, []int{999}, 3); len(got) != 0 {
		t.Fatalf("unknown doc affected %v", got)
	}
	// Mixed: one known doc, one unknown; only the known doc's component
	// is affected.
	got := g.AffectedQueries(nil, []int{2, 999}, 3)
	if !reflect.DeepEqual(got, []string{"best phones"}) {
		t.Fatalf("AffectedQueries(doc 2 + unknown) = %v", got)
	}
}

// TestAffectedQueriesBridgingBatch: after clicks bridge two previously
// disconnected clusters, the affected set expands through the new edges
// into BOTH old components (every seed whose walk can now cross the bridge
// must re-mine).
func TestAffectedQueriesBridgingBatch(t *testing.T) {
	g := twoComponents()
	g.Add("cars or phones", 1, "cars title", 1, 2)
	g.Add("cars or phones", 2, "phones title", 1, 2)
	got := g.AffectedQueries([]string{"cars or phones"}, []int{1, 2}, 3)
	want := []string{"best cars", "best phones", "cars or phones", "cars roundup"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bridging batch affected %v, want %v", got, want)
	}
}
