package giant

// End-to-end integration tests over the public facade: the full pipeline at
// tiny scale, structural invariants of the built ontology, persistence, and
// each §4 application.

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"giant/internal/ontology"
	"giant/internal/tagging"
)

var (
	sysOnce sync.Once
	sysVal  *System
	sysErr  error
)

func builtSystem(t *testing.T) *System {
	t.Helper()
	sysOnce.Do(func() {
		sysVal, sysErr = Build(TinyConfig())
	})
	if sysErr != nil {
		t.Fatalf("Build: %v", sysErr)
	}
	return sysVal
}

func TestBuildProducesAllNodeTypes(t *testing.T) {
	sys := builtSystem(t)
	st := sys.Snapshot().ComputeStats()
	for _, typ := range []string{"category", "concept", "entity", "event"} {
		if st.NodesByType[typ] == 0 {
			t.Fatalf("no %s nodes: %+v", typ, st)
		}
	}
	for _, typ := range []string{"isA", "involve"} {
		if st.EdgesByType[typ] == 0 {
			t.Fatalf("no %s edges: %+v", typ, st)
		}
	}
}

func TestOntologyIsADAG(t *testing.T) {
	sys := builtSystem(t)
	if sys.Snapshot().HasCycleIsA() {
		t.Fatal("isA subgraph has a cycle; the AO must be a DAG")
	}
}

func TestMinedPhrasesHaveProvenance(t *testing.T) {
	sys := builtSystem(t)
	if len(sys.Mined) == 0 {
		t.Fatal("nothing mined")
	}
	for _, m := range sys.Mined {
		if m.Phrase == "" || m.Seed == "" {
			t.Fatalf("mined attention missing provenance: %+v", m)
		}
		if len(m.Queries) == 0 || len(m.Titles) == 0 {
			t.Fatalf("mined attention missing cluster: %+v", m)
		}
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	sys := builtSystem(t)
	path := filepath.Join(t.TempDir(), "ao.bin")
	snap := sys.Snapshot()
	if err := snap.SaveBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ontology.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NodeCount() != snap.NodeCount() {
		t.Fatalf("nodes: %d != %d", loaded.NodeCount(), snap.NodeCount())
	}
	if loaded.EdgeCount() != snap.EdgeCount() {
		t.Fatalf("edges: %d != %d", loaded.EdgeCount(), snap.EdgeCount())
	}
}

func TestSystemSnapshotMatchesOntology(t *testing.T) {
	sys := builtSystem(t)
	snap := sys.Snapshot()
	if snap != sys.Ontology.Snapshot() {
		t.Fatal("System.Snapshot is not the ontology's adopted snapshot")
	}
	nodes, edges := snap.Nodes(), snap.Edges()
	if snap.NodeCount() != len(nodes) || snap.EdgeCount() != len(edges) {
		t.Fatalf("snapshot counts: %d/%d, lists: %d/%d", snap.NodeCount(), snap.EdgeCount(), len(nodes), len(edges))
	}
	isAChildren := make(map[ontology.NodeID]int)
	for _, e := range edges {
		if e.Type == ontology.IsA {
			isAChildren[e.Src]++
		}
	}
	for _, n := range nodes {
		got, ok := snap.Find(n.Type, n.Phrase)
		if !ok || got.ID != n.ID {
			t.Fatalf("snapshot lost node %v %q", n.Type, n.Phrase)
		}
		if len(snap.Children(n.ID, ontology.IsA)) != isAChildren[n.ID] {
			t.Fatalf("snapshot adjacency differs at %q", n.Phrase)
		}
	}
	// The §4 applications run over the snapshot.
	understander := sys.Query()
	understander.Onto = snap
	for _, r := range sys.Log.Records {
		if c := understander.Conceptualize(r.Query); c != "" {
			return
		}
	}
	t.Fatal("no query conceptualized over the snapshot")
}

func TestConceptTaggerOnLogDocs(t *testing.T) {
	sys := builtSystem(t)
	ct := sys.ConceptTagger()
	tagged := 0
	for i := range sys.Log.Docs {
		d := &sys.Log.Docs[i]
		if d.ConceptID < 0 {
			continue
		}
		ents := make([]string, 0, len(d.Entities))
		for _, id := range d.Entities {
			ents = append(ents, sys.World.Entities[id].Name)
		}
		tags := ct.TagConcepts(&tagging.Document{Title: d.Title, Content: d.Content, Entities: ents})
		if len(tags) > 0 {
			tagged++
		}
	}
	if tagged == 0 {
		t.Fatal("concept tagger tagged nothing")
	}
}

func TestEventTaggerOnLogDocs(t *testing.T) {
	sys := builtSystem(t)
	et := sys.EventTagger()
	tagged := 0
	for i := range sys.Log.Docs {
		d := &sys.Log.Docs[i]
		if d.EventID < 0 {
			continue
		}
		if len(et.TagEvents(&tagging.Document{Title: d.Title, Content: d.Content})) > 0 {
			tagged++
		}
		if tagged > 5 {
			break
		}
	}
	if tagged == 0 {
		t.Fatal("event tagger tagged nothing")
	}
}

func TestQueryUnderstandingEndToEnd(t *testing.T) {
	sys := builtSystem(t)
	u := sys.Query()
	hits := 0
	for _, c := range sys.Snapshot().Nodes(ontology.Concept) {
		if u.Conceptualize("best "+c.Phrase) == c.Phrase {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("query conceptualization recovered nothing")
	}
}

func TestStoryTreeEndToEnd(t *testing.T) {
	sys := builtSystem(t)
	var seed string
	for _, m := range sys.Mined {
		if m.IsEvent {
			seed = m.Phrase
			break
		}
	}
	if seed == "" {
		t.Skip("no events mined at tiny scale")
	}
	tree, ok := sys.StoryTree(seed)
	if !ok {
		t.Fatalf("story tree for %q not built", seed)
	}
	var buf bytes.Buffer
	tree.Render(&buf)
	if !strings.Contains(buf.String(), "story:") {
		t.Fatalf("render: %s", buf.String())
	}
	if _, ok := sys.StoryTree("nonexistent event"); ok {
		t.Fatal("story tree for unknown seed should fail")
	}
}

func TestCategoryEdgesPointIntoHierarchy(t *testing.T) {
	sys := builtSystem(t)
	snap := sys.Snapshot()
	for _, e := range snap.Edges(ontology.IsA) {
		src, _ := snap.Get(e.Src)
		dst, _ := snap.Get(e.Dst)
		if src.Type == ontology.Entity {
			t.Fatalf("entity %q should not be an isA source (instances are destinations)", src.Phrase)
		}
		if dst.Type == ontology.Category && src.Type != ontology.Category {
			t.Fatalf("category %q must not be an isA destination of %s", dst.Phrase, src.Type)
		}
	}
}
