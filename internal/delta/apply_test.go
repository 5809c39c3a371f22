package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"giant/internal/ontology"
)

// picker yields the case generator's choices: the seeded tests draw them
// from math/rand, FuzzApply from the fuzzer's bytes.
type picker interface {
	intn(n int) int // in [0, n); 0 when n <= 1
}

type randPicker struct{ r *rand.Rand }

func (p randPicker) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return p.r.Intn(n)
}

// bytePicker consumes one byte per choice and answers 0 once they run out.
type bytePicker struct{ b []byte }

func (p *bytePicker) intn(n int) int {
	if n <= 1 || len(p.b) == 0 {
		return 0
	}
	v := int(p.b[0])
	p.b = p.b[1:]
	return v % n
}

// genWord draws a phrase or alias from a vocabulary of size words, in
// either casing, so different nodes and aliases collide often.
func genWord(p picker, words int) string {
	w := fmt.Sprintf("w%d", p.intn(words))
	if p.intn(3) == 0 {
		return strings.ToUpper(w)
	}
	return w
}

// genWorld builds a snapshot through the Ontology API, so it holds what
// every pipeline snapshot holds: phrases unique per type, edges unique per
// (src, dst, type), no self edges.
func genWorld(p picker, nodes, words int) *ontology.Snapshot {
	o := ontology.New()
	for i := 0; i < nodes; i++ {
		id := o.AddNodeAt(ontology.NodeType(p.intn(ontology.NumNodeTypes)), genWord(p, words), p.intn(8))
		o.SetLastSeen(id, p.intn(12))
		if p.intn(2) == 0 {
			o.SetEventAttrs(id, genWord(p, words), "", p.intn(12))
		}
		for a := p.intn(4); a > 0; a-- {
			o.AddAlias(id, genWord(p, words))
		}
	}
	n := o.Snapshot().Len()
	for e := p.intn(2*n + 1); e > 0; e-- {
		// Self edges are refused; that is fine.
		_ = o.AddEdge(ontology.NodeID(p.intn(n)), ontology.NodeID(p.intn(n)), ontology.EdgeType(p.intn(ontology.NumEdgeTypes)), float64(p.intn(5))/4)
	}
	return o.Snapshot()
}

// genDelta draws a delta against cur that mixes the references Apply must
// resolve: existing, absent, retired and freshly added phrases in any
// casing, repeats, self edges after resolution, first/middle/last
// retirements, touches that hand a node a key held by a higher ID, and
// retirements of an alias owner that another node also carries.
func genDelta(p picker, cur *ontology.Snapshot, words int) *Delta {
	nodes := cur.Nodes()
	edges := cur.Edges()
	d := &Delta{Day: 10 + p.intn(10)}
	recase := func(s string) string {
		switch p.intn(3) {
		case 0:
			return strings.ToUpper(s)
		case 1:
			return strings.ToLower(s)
		}
		return s
	}
	existing := func() Ref {
		if len(nodes) == 0 {
			return Ref{Type: ontology.NodeType(p.intn(ontology.NumNodeTypes)), Phrase: genWord(p, words)}
		}
		var n *ontology.Node
		switch p.intn(4) {
		case 0:
			n = &nodes[0]
		case 1:
			n = &nodes[len(nodes)/2]
		case 2:
			n = &nodes[len(nodes)-1]
		default:
			n = &nodes[p.intn(len(nodes))]
		}
		return Ref{Type: n.Type, Phrase: recase(n.Phrase)}
	}
	// ref is any plausible reference: an existing node, something this
	// delta adds or retires, or a phrase nobody has.
	ref := func() Ref {
		switch p.intn(6) {
		case 0:
			if len(d.Add) > 0 {
				a := d.Add[p.intn(len(d.Add))]
				return Ref{Type: a.Type, Phrase: recase(a.Phrase)}
			}
		case 1:
			if len(d.Retire) > 0 {
				return d.Retire[p.intn(len(d.Retire))]
			}
		case 2:
			return Ref{Type: ontology.NodeType(p.intn(ontology.NumNodeTypes)), Phrase: genWord(p, words+4)}
		}
		return existing()
	}
	aliases := func() []string {
		var out []string
		for a := p.intn(3); a > 0; a-- {
			out = append(out, genWord(p, words))
		}
		return out
	}

	for r := p.intn(4); r > 0; r-- {
		d.Retire = append(d.Retire, existing())
	}
	if p.intn(3) == 0 {
		// Retire the owner of an alias another node of its type carries.
		if owner, ok := sharedAliasOwner(cur, p); ok {
			d.Retire = append(d.Retire, Ref{Type: owner.Type, Phrase: owner.Phrase})
		}
	}
	if p.intn(4) == 0 {
		d.Retire = append(d.Retire, Ref{Type: ontology.NodeType(p.intn(ontology.NumNodeTypes)), Phrase: genWord(p, words+4)})
	}
	for a := p.intn(4); a > 0; a-- {
		na := NodeAdd{
			Type: ontology.NodeType(p.intn(ontology.NumNodeTypes)), Phrase: genWord(p, words+4),
			Aliases: aliases(), Trigger: genWord(p, words), Day: p.intn(20),
		}
		switch p.intn(4) {
		case 0: // an existing (or retired) phrase: idempotent re-add
			r := ref()
			na.Type, na.Phrase = r.Type, r.Phrase
		case 1: // twice in one delta
			if len(d.Add) > 0 {
				na = d.Add[p.intn(len(d.Add))]
				na.Phrase = recase(na.Phrase)
			}
		}
		d.Add = append(d.Add, na)
	}
	for k := p.intn(4); k > 0; k-- {
		r := ref()
		t := NodeAdd{Type: r.Type, Phrase: r.Phrase, Aliases: aliases(), Day: p.intn(20)}
		if p.intn(2) == 0 {
			t.Trigger, t.Location = genWord(p, words), genWord(p, words)
		}
		d.Touch = append(d.Touch, t)
	}
	if ids := cur.IDsOfType(ontology.NodeType(p.intn(ontology.NumNodeTypes))); p.intn(2) == 0 && len(ids) > 1 {
		// A lower ID takes an alias key a higher ID of its type owns.
		i, j := p.intn(len(ids)), p.intn(len(ids))
		if i > j {
			i, j = j, i
		}
		if lo, hi := cur.At(ids[i]), cur.At(ids[j]); i < j && len(hi.Aliases) > 0 {
			d.Touch = append(d.Touch, NodeAdd{Type: lo.Type, Phrase: lo.Phrase,
				Aliases: []string{recase(hi.Aliases[p.intn(len(hi.Aliases))])}})
		}
	}
	edge := func() EdgeAdd {
		if len(edges) > 0 && p.intn(3) == 0 {
			e := edges[p.intn(len(edges))]
			src, dst := nodes[e.Src], nodes[e.Dst]
			return EdgeAdd{SrcType: src.Type, Src: recase(src.Phrase), DstType: dst.Type, Dst: recase(dst.Phrase),
				Type: e.Type, Weight: float64(p.intn(5)) / 4}
		}
		src, dst := ref(), ref()
		if p.intn(6) == 0 {
			dst = Ref{Type: src.Type, Phrase: recase(src.Phrase)} // self edge once resolved
		}
		return EdgeAdd{SrcType: src.Type, Src: src.Phrase, DstType: dst.Type, Dst: dst.Phrase,
			Type: ontology.EdgeType(p.intn(ontology.NumEdgeTypes)), Weight: float64(p.intn(5)) / 4}
	}
	for e := p.intn(5); e > 0; e-- {
		if len(d.Edges) > 0 && p.intn(4) == 0 {
			d.Edges = append(d.Edges, d.Edges[p.intn(len(d.Edges))]) // repeated new edge
			continue
		}
		d.Edges = append(d.Edges, edge())
	}
	for e := p.intn(4); e > 0; e-- {
		var w EdgeAdd
		if len(d.Edges) > 0 && p.intn(3) == 0 {
			w = d.Edges[p.intn(len(d.Edges))]
		} else {
			w = edge()
		}
		w.Weight = float64(p.intn(9)) / 8
		d.Reweight = append(d.Reweight, w)
	}
	return d
}

// sharedAliasOwner finds a node that owns an alias key some other node of
// its type also carries.
func sharedAliasOwner(cur *ontology.Snapshot, p picker) (ontology.Node, bool) {
	nodes := cur.Nodes()
	start := p.intn(len(nodes) + 1)
	for k := range nodes {
		n := &nodes[(start+k)%len(nodes)]
		for _, a := range n.Aliases {
			owner, ok := cur.LookupAlias(n.Type, a)
			if ok && owner != n.ID {
				return nodes[owner], true
			}
		}
	}
	return ontology.Node{}, false
}

// checkApply holds Apply to applyReference on one (snapshot, delta) pair —
// same nodes, same edges, same error — and holds every index of Apply's
// result, and of cur after it, to ontology.BuildSnapshot over the same
// lists. It returns Apply's result for chaining.
func checkApply(t testing.TB, cur *ontology.Snapshot, d *Delta) *ontology.Snapshot {
	t.Helper()
	want, wantErr := applyReference(cur, d)
	got, err := Apply(cur, d)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("Apply error %v, reference error %v\ndelta %+v", err, wantErr, d)
	}
	if err != nil {
		return cur
	}
	if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
		t.Fatalf("nodes differ from the reference\ngot  %+v\nwant %+v\ncur  %+v\ndelta %+v", got.Nodes(), want.Nodes(), cur.Nodes(), d)
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("edges differ from the reference\ngot  %+v\nwant %+v\ndelta %+v", got.Edges(), want.Edges(), d)
	}
	checkIndexes(t, got, cur)
	checkIndexes(t, cur, got) // cur, whose maps got may share, is untouched
	return got
}

// checkIndexes compares every index of s, through the public read API,
// with a snapshot built from scratch over s's lists. Keys are probed from
// prev's nodes as well as s's, so a key a retired node left behind shows.
func checkIndexes(t testing.TB, s, prev *ontology.Snapshot) {
	t.Helper()
	fresh, err := ontology.BuildSnapshot(s.Nodes(), s.Edges())
	if err != nil {
		t.Fatalf("BuildSnapshot over Apply's lists: %v", err)
	}
	var keys []string
	for _, n := range append(prev.Nodes(), s.Nodes()...) {
		keys = append(keys, n.Phrase)
		keys = append(keys, n.Aliases...)
	}
	for typ := ontology.NodeType(0); typ < ontology.NumNodeTypes; typ++ {
		for _, k := range keys {
			gid, gok := s.Lookup(typ, k)
			wid, wok := fresh.Lookup(typ, k)
			if gid != wid || gok != wok {
				t.Fatalf("Lookup(%s, %q) = %d,%v, from scratch %d,%v", typ, k, gid, gok, wid, wok)
			}
			gid, gok = s.LookupAlias(typ, k)
			wid, wok = fresh.LookupAlias(typ, k)
			if gid != wid || gok != wok {
				t.Fatalf("LookupAlias(%s, %q) = %d,%v, from scratch %d,%v", typ, k, gid, gok, wid, wok)
			}
		}
		if got, want := s.IDsOfType(typ), fresh.IDsOfType(typ); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("IDsOfType(%s) = %v, from scratch %v", typ, got, want)
		}
		if got, want := s.NodeCount(typ), fresh.NodeCount(typ); got != want {
			t.Fatalf("NodeCount(%s) = %d, from scratch %d", typ, got, want)
		}
	}
	for typ := ontology.EdgeType(0); typ < ontology.NumEdgeTypes; typ++ {
		if got, want := s.EdgeCount(typ), fresh.EdgeCount(typ); got != want {
			t.Fatalf("EdgeCount(%s) = %d, from scratch %d", typ, got, want)
		}
	}
	if got, want := s.ComputeStats(), fresh.ComputeStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats %+v, from scratch %+v", got, want)
	}
	adjacency := func(s *ontology.Snapshot, v ontology.NodeID) (out, in []ontology.Edge) {
		s.EachOut(v, func(e *ontology.Edge, _ *ontology.Node) bool { out = append(out, *e); return true })
		s.EachIn(v, func(e *ontology.Edge, _ *ontology.Node) bool { in = append(in, *e); return true })
		return out, in
	}
	for v := 0; v < s.Len(); v++ {
		gout, gin := adjacency(s, ontology.NodeID(v))
		wout, win := adjacency(fresh, ontology.NodeID(v))
		if !reflect.DeepEqual(gout, wout) || !reflect.DeepEqual(gin, win) {
			t.Fatalf("CSR of node %d: out %v in %v, from scratch out %v in %v", v, gout, gin, wout, win)
		}
	}
}

// applyCase generates a world and a chain of up to three deltas, each drawn
// against the generation before it, and checks every step. A non-nil seen
// counts the cases (see coverage) the steps exercised.
func applyCase(t testing.TB, p picker, seen map[string]int) {
	cur := genWorld(p, p.intn(16), 10)
	for step := 1 + p.intn(3); step > 0; step-- {
		d := genDelta(p, cur, 10)
		if seen != nil {
			for _, c := range coverage(cur, d) {
				seen[c]++
			}
		}
		cur = checkApply(t, cur, d)
	}
}

// TestApplyMatchesReference is the differential test: thousands of seeded
// worlds and delta chains, each step held to applyReference and to a
// from-scratch index. It also asserts the generator reached every case it
// is meant to cover.
func TestApplyMatchesReference(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(0); seed < 3000; seed++ {
		applyCase(t, randPicker{rand.New(rand.NewSource(seed))}, seen)
	}
	for _, c := range []string{
		"idempotent add", "add repeated in delta", "edge to absent phrase", "edge to retired phrase",
		"self edge after resolution", "reweight existing", "reweight missing", "repeated new edge",
		"retire first", "retire middle", "retire last", "lower-ID touch takes alias", "retired alias owner with second holder",
	} {
		if seen[c] == 0 {
			t.Errorf("generator never produced %q (saw %v)", c, seen)
		}
	}
}

// coverage names the cases of interest a (snapshot, delta) pair exercises.
func coverage(cur *ontology.Snapshot, d *Delta) []string {
	var out []string
	retired := map[ontology.NodeID]bool{}
	for _, r := range d.Retire {
		if id, ok := cur.Lookup(r.Type, r.Phrase); ok {
			retired[id] = true
			switch {
			case id == 0:
				out = append(out, "retire first")
			case int(id) == cur.Len()-1:
				out = append(out, "retire last")
			default:
				out = append(out, "retire middle")
			}
			n := cur.At(id)
			for _, a := range n.Aliases {
				if owner, _ := cur.LookupAlias(n.Type, a); owner == id && aliasHolders(cur, n.Type, a) > 1 {
					out = append(out, "retired alias owner with second holder")
				}
			}
		}
	}
	live := func(t ontology.NodeType, phrase string) bool {
		id, ok := cur.Lookup(t, phrase)
		return ok && !retired[id]
	}
	added := map[string]bool{}
	for _, a := range d.Add {
		k := refKey(a.Type, a.Phrase)
		if live(a.Type, a.Phrase) {
			out = append(out, "idempotent add")
		} else if added[k] {
			out = append(out, "add repeated in delta")
		}
		added[k] = true
	}
	for _, tc := range d.Touch {
		id, ok := cur.Lookup(tc.Type, tc.Phrase)
		if !ok || retired[id] {
			continue
		}
		for _, a := range tc.Aliases {
			if owner, ok := cur.LookupAlias(tc.Type, a); ok && owner > id && !retired[owner] {
				out = append(out, "lower-ID touch takes alias")
			}
		}
	}
	known := func(t ontology.NodeType, phrase string) bool { return live(t, phrase) || added[refKey(t, phrase)] }
	newEdges := map[EdgeAdd]bool{}
	for _, e := range d.Edges {
		k := e
		k.Src, k.Dst, k.Weight = strings.ToLower(e.Src), strings.ToLower(e.Dst), 0
		switch {
		case newEdges[k]:
			out = append(out, "repeated new edge")
		case !known(e.SrcType, e.Src) || !known(e.DstType, e.Dst):
			if id, ok := cur.Lookup(e.DstType, e.Dst); ok && retired[id] {
				out = append(out, "edge to retired phrase")
			} else {
				out = append(out, "edge to absent phrase")
			}
		case k.SrcType == k.DstType && k.Src == k.Dst:
			out = append(out, "self edge after resolution")
		}
		newEdges[k] = true
	}
	for _, e := range d.Reweight {
		if _, ok := findEdge(cur, e); ok && live(e.SrcType, e.Src) && live(e.DstType, e.Dst) {
			out = append(out, "reweight existing")
		} else {
			out = append(out, "reweight missing")
		}
	}
	return out
}

// aliasHolders counts the nodes of type t carrying alias a.
func aliasHolders(cur *ontology.Snapshot, t ontology.NodeType, a string) int {
	n := 0
	for _, id := range cur.IDsOfType(t) {
		for _, x := range cur.At(id).Aliases {
			if strings.ToLower(x) == strings.ToLower(a) {
				n++
				break
			}
		}
	}
	return n
}

// TestApplyAliasOwnership pins the two index cases a patched index can get
// wrong: a lower ID that gains an alias a higher ID owns takes the key, and
// a retired owner's key passes to the next node still carrying it.
func TestApplyAliasOwnership(t *testing.T) {
	o := ontology.New()
	a := o.AddNode(ontology.Concept, "alpha")
	b := o.AddNode(ontology.Concept, "beta")
	c := o.AddNode(ontology.Concept, "gamma")
	o.AddAlias(b, "shared")
	o.AddAlias(c, "shared")
	o.AddAlias(c, "own")
	cur := o.Snapshot()
	if id, _ := cur.LookupAlias(ontology.Concept, "own"); id != c {
		t.Fatalf("setup: own owned by %d", id)
	}

	next := checkApply(t, cur, &Delta{Day: 1, Touch: []NodeAdd{{Type: ontology.Concept, Phrase: "alpha", Aliases: []string{"OWN"}}}})
	if id, _ := next.LookupAlias(ontology.Concept, "own"); id != a {
		t.Fatalf("lower-ID touch: own owned by %d, want %d", id, a)
	}
	next = checkApply(t, cur, &Delta{Day: 1, Retire: []Ref{{Type: ontology.Concept, Phrase: "beta"}}})
	if id, _ := next.LookupAlias(ontology.Concept, "shared"); id != 1 {
		t.Fatalf("retired owner: shared owned by %d, want gamma renumbered to 1", id)
	}
}

// FuzzApply drives the case generator from fuzz bytes: Apply must never
// panic and must match applyReference and a from-scratch index.
func FuzzApply(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, 256)
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		applyCase(t, &bytePicker{data}, nil)
	})
}

// oneTouchCase is a generated world of about the given size and a delta
// that touches one node (adding an alias) and adds one edge.
func oneTouchCase(nodes int) (*ontology.Snapshot, *Delta) {
	cur := genWorld(randPicker{rand.New(rand.NewSource(1))}, nodes, 4*nodes)
	src, dst := cur.At(ontology.NodeID(nodes/3)), cur.At(ontology.NodeID(nodes/2))
	return cur, &Delta{
		Day:   30,
		Touch: []NodeAdd{{Type: src.Type, Phrase: src.Phrase, Aliases: []string{"fresh alias"}}},
		Edges: []EdgeAdd{{SrcType: src.Type, Src: src.Phrase, DstType: dst.Type, Dst: dst.Phrase, Type: ontology.Correlate, Weight: 0.5}},
	}
}

// TestApplyAllocsDoNotScaleWithNodes fences the cost of a small delta: a
// one-touch, one-edge Apply allocates about the same on an 8x larger world
// (only the copied alias map of the touched type has more tables to
// allocate), and far less than the 2,191 allocations the
// rebuild-everything Apply made on the ~2k-node offline_replay world.
func TestApplyAllocsDoNotScaleWithNodes(t *testing.T) {
	allocs := func(nodes int) float64 {
		cur, d := oneTouchCase(nodes)
		return testing.AllocsPerRun(20, func() {
			if _, err := Apply(cur, d); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(500), allocs(4000)
	t.Logf("allocs per Apply: %v at 500 nodes, %v at 4000", small, large)
	if large > 220 {
		t.Errorf("one-touch Apply on 4000 nodes makes %v allocations, want <= 220", large)
	}
	if large > small+16 {
		t.Errorf("allocations grow with the world: %v at 500 nodes, %v at 4000", small, large)
	}
}

// BenchmarkApplyOneTouch times a one-touch, one-edge delta on a ~2k-node
// world, against the rebuild-everything reference.
func BenchmarkApplyOneTouch(b *testing.B) {
	cur, d := oneTouchCase(2000)
	for _, impl := range []struct {
		name  string
		apply func(*ontology.Snapshot, *Delta) (*ontology.Snapshot, error)
	}{{"derive", Apply}, {"reference", applyReference}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := impl.apply(cur, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
