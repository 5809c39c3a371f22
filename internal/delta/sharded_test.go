package delta

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"giant/internal/core"
	"giant/internal/ontology"
)

// refProjection is the projection oracle: shard i of k built from its
// definition with no shared code — home nodes in union ID order, then
// every non-home endpoint of an edge incident to a home node in union ID
// order, then the edges incident to a home node in union edge order.
func refProjection(t *testing.T, u *ontology.Snapshot, i, k int) (*ontology.Snapshot, int) {
	t.Helper()
	home := func(n *ontology.Node) bool { return ontology.HomeShard(n.Type, n.Phrase, k) == i }
	local := map[ontology.NodeID]ontology.NodeID{}
	var nodes []ontology.Node
	take := func(n ontology.Node) {
		if _, ok := local[n.ID]; !ok {
			local[n.ID] = ontology.NodeID(len(nodes))
			n.ID = ontology.NodeID(len(nodes))
			nodes = append(nodes, n)
		}
	}
	for _, n := range u.Nodes() {
		if home(&n) {
			take(n)
		}
	}
	homes := len(nodes)
	var edges []ontology.Edge
	for _, n := range u.Nodes() {
		if home(&n) {
			continue
		}
		for _, e := range u.Edges() {
			if (e.Src == n.ID && home(u.At(e.Dst))) || (e.Dst == n.ID && home(u.At(e.Src))) {
				take(n)
				break
			}
		}
	}
	for _, e := range u.Edges() {
		if home(u.At(e.Src)) || home(u.At(e.Dst)) {
			e.Src, e.Dst = local[e.Src], local[e.Dst]
			edges = append(edges, e)
		}
	}
	snap, err := ontology.BuildSnapshot(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return snap, homes
}

func binaryOf(t *testing.T, w interface{ WriteBinary(io.Writer) error }) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := w.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestProjectMatchesShardSnapshot is the projection oracle over a lineage
// with adds, a touch-only batch and a renumbering retirement, at K ∈ {1,
// 2, 4}: at every step and for every shard, Project equals the oracle and
// ShardSnapshot(u, K).Projection(i) (GIANTBIN bytes, union IDs, home
// count), and a shard the delta left untouched keeps serving its previous
// snapshot pointer through Rebase while rendering the new union IDs.
func TestProjectMatchesShardSnapshot(t *testing.T) {
	adds := &Delta{Day: 2}
	for n := 0; n < 12; n++ {
		phrase := fmt.Sprintf("model sedan %02d", n)
		adds.Add = append(adds.Add, NodeAdd{Type: ontology.Concept, Phrase: phrase, Day: 2})
		adds.Edges = append(adds.Edges, EdgeAdd{SrcType: ontology.Category, Src: "autos", DstType: ontology.Concept, Dst: phrase, Type: ontology.IsA, Weight: 0.5})
	}
	lineage := []*Delta{
		adds,
		{Day: 3, Touch: []NodeAdd{{Type: ontology.Concept, Phrase: "family sedans", Day: 3}}},
		// Retiring node 4 renumbers every node added on day 2.
		{Day: 4, Retire: []Ref{{Type: ontology.Event, Phrase: "automaker recalls sedans"}}},
		{Day: 5, Add: []NodeAdd{{Type: ontology.Entity, Phrase: "kia k5", Day: 5}}},
	}
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			u := baseSnapshot(t)
			serving := make([]*ontology.ShardProjection, k)
			for i := range serving {
				serving[i] = mustProject(t, u, i, k)
			}
			renumbered := 0
			for step, d := range lineage {
				next, err := Apply(u, d)
				if err != nil {
					t.Fatal(err)
				}
				touched := TouchedShards(u, d, k)
				ss, err := ontology.ShardSnapshot(next, k)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < k; i++ {
					p := mustProject(t, next, i, k)
					q := ss.Projection(i)
					if !bytes.Equal(binaryOf(t, p), binaryOf(t, q)) || !reflect.DeepEqual(p.UnionIDs, q.UnionIDs) || p.HomeCount != q.HomeCount {
						t.Fatalf("step %d shard %d: Project differs from ShardSnapshot(u, %d).Projection", step, i, k)
					}
					ref, homes := refProjection(t, next, i, k)
					if !bytes.Equal(binaryOf(t, p.Snap), binaryOf(t, ref)) || p.HomeCount != homes {
						t.Fatalf("step %d shard %d: Project differs from the oracle", step, i)
					}
					for local, uid := range p.UnionIDs {
						n, un := p.Snap.At(ontology.NodeID(local)), next.At(uid)
						if n.Type != un.Type || n.Phrase != un.Phrase {
							t.Fatalf("step %d shard %d: local %d resolves to union %d (%s), not its own key %s", step, i, local, uid, un.Phrase, n.Phrase)
						}
					}
					if ontology.ShardChanged(touched, k, i) {
						serving[i] = p
						continue
					}
					r := serving[i].Rebase(next)
					if r.Snap != serving[i].Snap {
						t.Fatalf("step %d: untouched shard %d did not keep its snapshot", step, i)
					}
					if !reflect.DeepEqual(r.UnionIDs, p.UnionIDs) || r.HomeCount != p.HomeCount {
						t.Fatalf("step %d: untouched shard %d renders union IDs %v, want %v", step, i, r.UnionIDs, p.UnionIDs)
					}
					if !reflect.DeepEqual(r.UnionIDs, serving[i].UnionIDs) {
						renumbered++
					}
					serving[i] = r
				}
				u = next
			}
			if k == 4 && renumbered == 0 {
				t.Fatal("no untouched shard saw its union IDs renumbered: the lineage does not exercise Rebase")
			}
		})
	}
}

func mustProject(t *testing.T, u *ontology.Snapshot, i, k int) *ontology.ShardProjection {
	t.Helper()
	p, err := ontology.Project(u, i, k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestApplyShardedReusesUntouchedProjections: a pure touch of one existing
// concept marks only its home shard; every other shard's projection,
// rebased on the applied union, keeps its snapshot and renders the union
// IDs a fresh projection would, while the home shard's re-derived
// projection carries the touch.
func TestApplyShardedReusesUntouchedProjections(t *testing.T) {
	cur := baseSnapshot(t)
	const k = 4
	projs := make([]*ontology.ShardProjection, k)
	for s := range projs {
		projs[s] = mustProject(t, cur, s, k)
	}
	// TTLs off so no retirement rides along.
	mined := []core.Mined{{Phrase: "family sedans", Seed: "best family sedans", Day: 6}}
	pol := testPolicy()
	pol.EventTTL = 0
	d := Compute(cur, mined, []string{"best family sedans"}, 6, pol, Source{})
	next, err := Apply(cur, d)
	if err != nil {
		t.Fatal(err)
	}
	touched := TouchedShards(cur, d, k)
	id, ok := next.Lookup(ontology.Concept, "family sedans")
	if !ok {
		t.Fatal("concept not routable")
	}
	home := ontology.HomeShard(ontology.Concept, next.At(id).Phrase, k)
	for s := 0; s < k; s++ {
		if s == home {
			if !ontology.ShardChanged(touched, k, s) {
				t.Fatalf("home shard %d not touched", s)
			}
			continue
		}
		if ontology.ShardChanged(touched, k, s) {
			t.Fatalf("shard %d touched by a foreign delta: %v", s, touched)
		}
		r := projs[s].Rebase(next)
		if r.Snap != projs[s].Snap {
			t.Fatalf("untouched shard %d was rebuilt", s)
		}
		if want := mustProject(t, next, s, k); !reflect.DeepEqual(r.UnionIDs, want.UnionIDs) || r.HomeCount != want.HomeCount {
			t.Fatalf("untouched shard %d renders union IDs %v, want %v", s, r.UnionIDs, want.UnionIDs)
		}
	}
	if bytes.Equal(binaryOf(t, mustProject(t, next, home, k)), binaryOf(t, projs[home])) {
		t.Fatal("touched home shard kept its stale projection")
	}
}

// TestTouchedShardsRetireMarksNeighbors: retiring a node must also touch
// the home shards of its neighbors (their projections lose the edge and
// possibly a ghost).
func TestTouchedShardsRetireMarksNeighbors(t *testing.T) {
	cur := baseSnapshot(t)
	const k = 8
	d := &Delta{Day: 30, Retire: []Ref{{Type: ontology.Event, Phrase: "automaker recalls sedans"}}}
	touched := TouchedShards(cur, d, k)
	want := map[int]bool{
		ontology.HomeShard(ontology.Event, "automaker recalls sedans", k): true,
		// The event involves honda civic; its home shard loses the edge.
		ontology.HomeShard(ontology.Entity, "honda civic", k): true,
	}
	for s, isTouched := range touched {
		if isTouched != want[s] {
			t.Fatalf("touched[%d] = %v, want %v (touched=%v)", s, isTouched, want[s], touched)
		}
	}
}
