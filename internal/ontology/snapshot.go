package ontology

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"strings"
	"sync"
)

// Snapshot is an immutable, read-optimized view of an Ontology, built once
// from a finished build (or loaded from the GIANTBIN file a build wrote)
// and then shared freely between goroutines. Every index is complete
// before the snapshot is shared — phrase→node and alias→node maps per
// type, per-type node lists, CSR adjacency over the edge list, and the
// per-type statistics — so lookups are lock-free O(1), traversals are
// O(degree), and the hot phrase-lookup path performs zero allocations.
// BuildSnapshot computes the indexes from scratch; Derive computes the
// next generation's from the current one's, patching only what the changed
// nodes touch. A Snapshot is the only read type of the ontology: it takes
// no lock, concurrent readers scale linearly, and an online server can
// hot-swap one atomically for another while requests are in flight.
type Snapshot struct {
	nodes []Node
	edges []Edge

	// byPhrase and byAlias map the lowercased surface form to the node, one
	// map per node type so lookups need no composite-key allocation.
	byPhrase [NumNodeTypes]map[string]NodeID
	byAlias  [NumNodeTypes]map[string]NodeID

	// byType lists node IDs per type in ID order.
	byType [NumNodeTypes][]NodeID

	// out/in are CSR adjacency: outIdx[outOff[v]:outOff[v+1]] are the indices
	// into edges of v's out-edges (and symmetrically for in-edges).
	outOff, inOff []int32
	outIdx, inIdx []int32

	stats Stats

	// grams is the lazily built term-gram presence index over every node's
	// phrase and aliases, used by Search to skip the scan entirely when no
	// node can contain the needle. gramsOnce guards the lazy build; the
	// binary decode path may pre-populate grams from a persisted section
	// before the snapshot is shared, in which case the build is skipped.
	gramsOnce sync.Once
	grams     *TermGrams

	// phraseToks holds each node type's tokenized phrases and their token
	// postings, built lazily the first time a tagging or
	// query-understanding request reads that type.
	phraseToks [NumNodeTypes]phraseTokensBox
}

// Snapshot returns an immutable snapshot of the ontology's current state.
// The returned Snapshot shares nothing mutable with the Ontology, so later
// writes to the Ontology never disturb its readers. An ontology adopted by
// FromSnapshot and not mutated since returns the snapshot it was adopted
// from — the same pointer, in O(1); otherwise every call copies the nodes
// and edges under the read lock and indexes the copy.
func (o *Ontology) Snapshot() *Snapshot {
	o.mu.RLock()
	if s := o.snap; s != nil {
		o.mu.RUnlock()
		return s
	}
	nodes := copyNodes(o.nodes)
	edges := make([]Edge, len(o.edges))
	copy(edges, o.edges)
	o.mu.RUnlock()
	return newSnapshot(nodes, edges)
}

// persisted is the JSON form of a snapshot.
type persisted struct {
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
}

// SnapshotFromJSON reads an ontology serialized by Snapshot.WriteJSON:
// the import half of giantctl convert, never a boot path. The lists are fed through the builder, so a repeated phrase folds into its
// first node and an out-of-range or self edge is an error. A JSON shard
// projection file (written by giantctl shard before shard files became
// GIANTBIN only) is rejected: its node list is one shard's home nodes plus
// ghosts under local IDs — a plausible-looking but wrong world if ever
// adopted as the whole ontology.
func SnapshotFromJSON(r io.Reader) (*Snapshot, error) {
	var p struct {
		persisted
		NumShards int `json:"num_shards"`
	}
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("ontology: decode: %w", err)
	}
	if p.NumShards > 0 {
		return nil, fmt.Errorf("ontology: this is a JSON shard projection file (%d shards), a format no longer read; re-export it with giantctl shard", p.NumShards)
	}
	o, err := fromNodesEdges(p.Nodes, p.Edges)
	if err != nil {
		return nil, err
	}
	return o.Snapshot(), nil
}

// LoadSnapshotFile reads the GIANTBIN snapshot artifact at path through
// the near-zero-allocation columnar decode path. Any other file is refused
// with ErrBadMagic naming giantctl convert, which imports JSON. A binary
// shard projection file is refused too: it is one shard's world, not the
// union.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	data, err := readArtifact(path)
	if err != nil {
		return nil, err
	}
	snap, err := DecodeSnapshotBinary(data)
	if err != nil {
		return nil, fmt.Errorf("ontology: load %s: %w", path, err)
	}
	return snap, nil
}

// BuildSnapshot indexes explicit node and edge lists into a Snapshot. The
// slices become owned by the snapshot and must not be mutated afterwards.
// Node IDs must equal their slice index (the invariant every snapshot
// relies on for O(1) access) and edge endpoints must be in range. Shard
// projections use this; the delta-apply path uses Derive instead.
func BuildSnapshot(nodes []Node, edges []Edge) (*Snapshot, error) {
	if err := checkLists(nodes, edges); err != nil {
		return nil, err
	}
	return newSnapshot(nodes, edges), nil
}

// checkLists enforces what every snapshot relies on: node IDs equal their
// slice index, and edges join two distinct in-range nodes.
func checkLists(nodes []Node, edges []Edge) error {
	for i := range nodes {
		if int(nodes[i].ID) != i {
			return fmt.Errorf("ontology: node %d has ID %d (IDs must be dense and ordered)", i, nodes[i].ID)
		}
	}
	for i := range edges {
		e := &edges[i]
		if e.Src < 0 || e.Dst < 0 || int(e.Src) >= len(nodes) || int(e.Dst) >= len(nodes) {
			return fmt.Errorf("ontology: edge %d endpoints out of range (%d,%d)", i, e.Src, e.Dst)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("ontology: edge %d is a self edge on node %d", i, e.Src)
		}
	}
	return nil
}

// Derive returns the generation that follows s. nodes and edges become
// owned by the result, and its indexes equal what BuildSnapshot(nodes,
// edges) would compute; but instead of re-hashing every phrase and alias,
// Derive patches s's maps for the nodes that changed (copying a map on its
// first write and sharing the rest), so a small step costs the keys it
// touches, a few map copies and the CSR rebuild, not N map inserts.
//
// The step is described by its result plus retired, the IDs of s's nodes
// that were dropped (ascending, no repeats). nodes must start with every
// other node of s, in order, renumbered densely and keeping its type and
// phrase; their other fields, aliases included, may change. Nodes past
// those are new.
func (s *Snapshot) Derive(nodes []Node, edges []Edge, retired []NodeID) (*Snapshot, error) {
	for i, r := range retired {
		if r < 0 || int(r) >= len(s.nodes) || (i > 0 && r <= retired[i-1]) {
			return nil, fmt.Errorf("ontology: derive: retired IDs must be ascending, unique and in range (%d at %d)", r, i)
		}
	}
	if len(nodes) < len(s.nodes)-len(retired) {
		return nil, fmt.Errorf("ontology: derive: %d nodes cannot carry over %d of %d", len(nodes), len(s.nodes)-len(retired), len(s.nodes))
	}
	if err := checkLists(nodes, edges); err != nil {
		return nil, err
	}
	remap := make([]NodeID, len(s.nodes)) // s's ID -> next ID, -1 if retired
	next, r := NodeID(0), 0
	for id := range remap {
		if r < len(retired) && int(retired[r]) == id {
			remap[id] = -1
			r++
			continue
		}
		if p, n := &s.nodes[id], &nodes[next]; p.Type != n.Type || p.Phrase != n.Phrase {
			return nil, fmt.Errorf("ontology: derive: node %d (%s %q) does not carry over node %d (%s %q)", next, n.Type, n.Phrase, id, p.Type, p.Phrase)
		}
		remap[id] = next
		next++
	}
	d := &Snapshot{nodes: nodes, edges: edges}
	d.buildCSR()
	d.deriveMaps(s, remap, retired)
	d.stats = countStats(nodes, edges)
	return d, nil
}

// deriveMaps computes the phrase, alias and per-type indexes of d from
// those of its predecessor p. A key belongs to the lowest ID carrying it,
// so the patch is: carried-over owners keep their keys (renumbered);
// retired owners, and owners whose aliases no longer carry a key, give the
// key up, and a given-up key goes to the lowest survivor still carrying it
// (a scan of that type, on steps that give keys up); a survivor's new
// alias takes its key from a higher owner; new nodes take what is free.
// A map nothing writes stays shared with p.
func (d *Snapshot) deriveMaps(p *Snapshot, remap, retired []NodeID) {
	d.byPhrase, d.byAlias = p.byPhrase, p.byAlias
	phrases, aliases := keyMaps{m: &d.byPhrase}, keyMaps{m: &d.byAlias}
	var freed [NumNodeTypes]map[string]bool // per type: keys given up
	release := func(c *keyMaps, t int, key string, owner NodeID) {
		k := strings.ToLower(key)
		if id, ok := c.m[t][k]; ok && id == owner {
			delete(c.own(t), k)
			if freed[t] == nil {
				freed[t] = map[string]bool{}
			}
			freed[t][k] = true
		}
	}
	for _, r := range retired {
		n := &p.nodes[r]
		if t := int(n.Type); t < NumNodeTypes {
			release(&phrases, t, n.Phrase, r)
			for _, a := range n.Aliases {
				release(&aliases, t, a, r)
			}
		}
	}
	// Survivors whose alias list was replaced (the only field of theirs an
	// index reads that may change) give up the keys they no longer carry.
	var changed []NodeID // next IDs
	for old, id := range remap {
		if id < 0 {
			continue
		}
		was, now := p.nodes[old].Aliases, d.nodes[id].Aliases
		if len(was) == len(now) && (len(now) == 0 || &was[0] == &now[0]) {
			continue
		}
		changed = append(changed, id)
		if t := int(d.nodes[id].Type); t < NumNodeTypes {
			for _, a := range was {
				if !carriesKey(now, strings.ToLower(a)) {
					release(&aliases, t, a, NodeID(old))
				}
			}
		}
	}
	if len(retired) > 0 {
		for t := range NumNodeTypes {
			for _, m := range []map[string]NodeID{phrases.own(t), aliases.own(t)} {
				for k, id := range m {
					m[k] = remap[id]
				}
			}
		}
	}

	kept := len(p.nodes) - len(retired)
	for t := range NumNodeTypes {
		ids := make([]NodeID, 0, len(p.byType[t])+len(d.nodes)-kept)
		for _, id := range p.byType[t] {
			if next := remap[id]; next >= 0 {
				ids = append(ids, next)
			}
		}
		if len(ids) == 0 {
			ids = nil // as indexMaps leaves a type with no nodes
		}
		d.byType[t] = ids
		if freed[t] == nil {
			continue
		}
		for _, id := range ids {
			n := &d.nodes[id]
			if k := strings.ToLower(n.Phrase); freed[t][k] {
				phrases.claim(t, k, id)
			}
			for _, a := range n.Aliases {
				if k := strings.ToLower(a); freed[t][k] {
					aliases.claim(t, k, id)
				}
			}
		}
	}
	for _, id := range changed {
		n := &d.nodes[id]
		if t := int(n.Type); t < NumNodeTypes {
			for _, a := range n.Aliases {
				k := strings.ToLower(a)
				if owner, ok := aliases.m[t][k]; !ok || id < owner {
					aliases.own(t)[k] = id
				}
			}
		}
	}
	for i := kept; i < len(d.nodes); i++ {
		n := &d.nodes[i]
		if t := int(n.Type); t < NumNodeTypes {
			phrases.claim(t, strings.ToLower(n.Phrase), n.ID)
			for _, a := range n.Aliases {
				aliases.claim(t, strings.ToLower(a), n.ID)
			}
			d.byType[t] = append(d.byType[t], n.ID)
		}
	}
}

// keyMaps is one family of per-type key maps (phrases or aliases) of a
// snapshot under derivation. Each map starts shared with the predecessor
// and is copied on its first write.
type keyMaps struct {
	m     *[NumNodeTypes]map[string]NodeID
	owned [NumNodeTypes]bool
}

// own returns type t's map, copying it first if it is still shared.
func (c *keyMaps) own(t int) map[string]NodeID {
	if !c.owned[t] {
		c.m[t], c.owned[t] = maps.Clone(c.m[t]), true
	}
	return c.m[t]
}

// claim is claimFirst on type t's map, copying it only if key is free.
func (c *keyMaps) claim(t int, key string, id NodeID) {
	if _, taken := c.m[t][key]; !taken {
		c.own(t)[key] = id
	}
}

// claimFirst gives key to id unless a node already owns it: visited in
// ascending ID order, the lowest ID carrying a key ends up owning it.
func claimFirst(m map[string]NodeID, key string, id NodeID) {
	if _, taken := m[key]; !taken {
		m[key] = id
	}
}

// carriesKey reports whether one of aliases lowercases to key.
func carriesKey(aliases []string, key string) bool {
	for _, a := range aliases {
		if strings.ToLower(a) == key {
			return true
		}
	}
	return false
}

// newSnapshot indexes the given node and edge lists. The caller must pass
// slices the snapshot may own.
func newSnapshot(nodes []Node, edges []Edge) *Snapshot {
	s := &Snapshot{nodes: nodes, edges: edges}
	s.buildCSR()
	s.indexMaps()
	return s
}

// indexMaps builds the derived in-memory indexes that are never persisted:
// the per-type phrase and alias maps, the per-type ID lists, and the
// precomputed statistics. The binary decode path calls this after wiring
// the file-backed node, edge, and CSR columns directly into the snapshot.
func (s *Snapshot) indexMaps() {
	for t := 0; t < NumNodeTypes; t++ {
		s.byPhrase[t] = make(map[string]NodeID)
		s.byAlias[t] = make(map[string]NodeID)
	}
	for i := range s.nodes {
		n := &s.nodes[i]
		t := int(n.Type)
		if t >= NumNodeTypes {
			continue
		}
		claimFirst(s.byPhrase[t], strings.ToLower(n.Phrase), n.ID)
		for _, a := range n.Aliases {
			claimFirst(s.byAlias[t], strings.ToLower(a), n.ID)
		}
		s.byType[t] = append(s.byType[t], n.ID)
	}
	s.stats = countStats(s.nodes, s.edges)
}

// countStats tallies nodes and edges per type name. Out-of-range types all
// count under the one name String gives them.
func countStats(nodes []Node, edges []Edge) Stats {
	var nc [NumNodeTypes + 1]int
	for i := range nodes {
		nc[min(int(nodes[i].Type), NumNodeTypes)]++
	}
	var ec [NumEdgeTypes + 1]int
	for i := range edges {
		ec[min(int(edges[i].Type), NumEdgeTypes)]++
	}
	st := Stats{NodesByType: map[string]int{}, EdgesByType: map[string]int{}}
	for t, c := range nc {
		if c > 0 {
			st.NodesByType[NodeType(t).String()] = c
		}
	}
	for t, c := range ec {
		if c > 0 {
			st.EdgesByType[EdgeType(t).String()] = c
		}
	}
	return st
}

// buildCSR computes the CSR adjacency from the edge list: count degrees,
// then fill grouped edge indices. The binary format persists these four
// arrays verbatim, so its decode path skips this work entirely.
func (s *Snapshot) buildCSR() {
	nv := len(s.nodes)
	s.outOff = make([]int32, nv+1)
	s.inOff = make([]int32, nv+1)
	for i := range s.edges {
		s.outOff[s.edges[i].Src+1]++
		s.inOff[s.edges[i].Dst+1]++
	}
	for v := 0; v < nv; v++ {
		s.outOff[v+1] += s.outOff[v]
		s.inOff[v+1] += s.inOff[v]
	}
	s.outIdx = make([]int32, len(s.edges))
	s.inIdx = make([]int32, len(s.edges))
	outNext := append([]int32(nil), s.outOff[:nv]...)
	inNext := append([]int32(nil), s.inOff[:nv]...)
	for i := range s.edges {
		e := &s.edges[i]
		s.outIdx[outNext[e.Src]] = int32(i)
		outNext[e.Src]++
		s.inIdx[inNext[e.Dst]] = int32(i)
		inNext[e.Dst]++
	}
}

// Lookup resolves a (type, phrase) pair to a node ID without allocating:
// already-lowercase phrases (the common case for normalized queries) hit
// the per-type map directly. This is the serving hot path.
func (s *Snapshot) Lookup(t NodeType, phrase string) (NodeID, bool) {
	if int(t) >= NumNodeTypes {
		return 0, false
	}
	id, ok := s.byPhrase[t][strings.ToLower(phrase)]
	return id, ok
}

// LookupAlias resolves a (type, alias) pair to the node the alias was
// merged into.
func (s *Snapshot) LookupAlias(t NodeType, alias string) (NodeID, bool) {
	if int(t) >= NumNodeTypes {
		return 0, false
	}
	id, ok := s.byAlias[t][strings.ToLower(alias)]
	return id, ok
}

// LookupAny resolves a phrase under any node type (in NodeType order),
// falling back to alias resolution when no canonical phrase matches.
func (s *Snapshot) LookupAny(phrase string) (NodeID, bool) {
	key := strings.ToLower(phrase)
	for t := 0; t < NumNodeTypes; t++ {
		if id, ok := s.byPhrase[t][key]; ok {
			return id, true
		}
	}
	for t := 0; t < NumNodeTypes; t++ {
		if id, ok := s.byAlias[t][key]; ok {
			return id, true
		}
	}
	return 0, false
}

// Get returns a copy of the node with the given ID.
func (s *Snapshot) Get(id NodeID) (Node, bool) {
	if int(id) < 0 || int(id) >= len(s.nodes) {
		return Node{}, false
	}
	return s.nodes[id], true
}

// At returns a pointer to the node with the given ID for zero-copy reads.
// The snapshot is immutable: callers must not write through the pointer.
func (s *Snapshot) At(id NodeID) *Node {
	return &s.nodes[id]
}

// Len returns the total number of nodes.
func (s *Snapshot) Len() int { return len(s.nodes) }

// Find returns the node with the given type and phrase.
func (s *Snapshot) Find(t NodeType, phrase string) (Node, bool) {
	id, ok := s.Lookup(t, phrase)
	if !ok {
		return Node{}, false
	}
	return s.nodes[id], true
}

// FindAny returns the first node with the phrase under any type.
func (s *Snapshot) FindAny(phrase string) (Node, bool) {
	key := strings.ToLower(phrase)
	for t := 0; t < NumNodeTypes; t++ {
		if id, ok := s.byPhrase[t][key]; ok {
			return s.nodes[id], true
		}
	}
	return Node{}, false
}

// IDsOfType returns the node IDs of the given type in ID order. The
// returned slice is shared snapshot state and must not be mutated.
func (s *Snapshot) IDsOfType(t NodeType) []NodeID {
	if int(t) >= NumNodeTypes {
		return nil
	}
	return s.byType[t]
}

// EachOut calls fn for every out-edge of v, passing the edge and the
// destination node; it allocates nothing. fn returning false stops early.
func (s *Snapshot) EachOut(v NodeID, fn func(e *Edge, dst *Node) bool) {
	if int(v) < 0 || int(v) >= len(s.nodes) {
		return
	}
	for _, ei := range s.outIdx[s.outOff[v]:s.outOff[v+1]] {
		e := &s.edges[ei]
		if !fn(e, &s.nodes[e.Dst]) {
			return
		}
	}
}

// EachIn calls fn for every in-edge of v, passing the edge and the source
// node; it allocates nothing. fn returning false stops early.
func (s *Snapshot) EachIn(v NodeID, fn func(e *Edge, src *Node) bool) {
	if int(v) < 0 || int(v) >= len(s.nodes) {
		return
	}
	for _, ei := range s.inIdx[s.inOff[v]:s.inOff[v+1]] {
		e := &s.edges[ei]
		if !fn(e, &s.nodes[e.Src]) {
			return
		}
	}
}

// EdgeIndex returns the position in Edges() of the edge src→dst of type t,
// found among src's out-edges in O(degree).
func (s *Snapshot) EdgeIndex(src, dst NodeID, t EdgeType) (int, bool) {
	if int(src) < 0 || int(src) >= len(s.nodes) {
		return 0, false
	}
	for _, ei := range s.outIdx[s.outOff[src]:s.outOff[src+1]] {
		if e := &s.edges[ei]; e.Dst == dst && e.Type == t {
			return int(ei), true
		}
	}
	return 0, false
}

// Children returns nodes reachable from id via out-edges of type t.
func (s *Snapshot) Children(id NodeID, t EdgeType) []Node {
	var out []Node
	s.EachOut(id, func(e *Edge, dst *Node) bool {
		if e.Type == t {
			out = append(out, *dst)
		}
		return true
	})
	return out
}

// Parents returns nodes with an edge of type t into id.
func (s *Snapshot) Parents(id NodeID, t EdgeType) []Node {
	var out []Node
	s.EachIn(id, func(e *Edge, src *Node) bool {
		if e.Type == t {
			out = append(out, *src)
		}
		return true
	})
	return out
}

// Ancestors returns all transitive IsA parents of id.
func (s *Snapshot) Ancestors(id NodeID) []Node {
	if int(id) < 0 || int(id) >= len(s.nodes) {
		return nil
	}
	seen := map[NodeID]bool{id: true}
	var out []Node
	frontier := []NodeID{id}
	for len(frontier) > 0 {
		var next []NodeID
		for _, f := range frontier {
			s.EachIn(f, func(e *Edge, src *Node) bool {
				if e.Type == IsA && !seen[src.ID] {
					seen[src.ID] = true
					out = append(out, *src)
					next = append(next, src.ID)
				}
				return true
			})
		}
		frontier = next
	}
	return out
}

// filterNodes copies nodes, keeping those matching any of the given types
// (all of them when types is empty).
func filterNodes(nodes []Node, types []NodeType) []Node {
	out := make([]Node, 0, len(nodes))
	for _, n := range nodes {
		if len(types) == 0 {
			out = append(out, n)
			continue
		}
		for _, t := range types {
			if n.Type == t {
				out = append(out, n)
			}
		}
	}
	return out
}

// filterEdges is filterNodes for edges.
func filterEdges(edges []Edge, types []EdgeType) []Edge {
	out := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if len(types) == 0 {
			out = append(out, e)
			continue
		}
		for _, t := range types {
			if e.Type == t {
				out = append(out, e)
			}
		}
	}
	return out
}

// Nodes returns a copy of all nodes (optionally filtered by type), in ID
// order. One type copies just that type's nodes off its per-type list.
func (s *Snapshot) Nodes(types ...NodeType) []Node {
	if len(types) != 1 {
		return filterNodes(s.nodes, types)
	}
	var ids []NodeID
	if t := types[0]; t < NumNodeTypes {
		ids = s.byType[t]
	}
	out := make([]Node, len(ids))
	for i, id := range ids {
		out[i] = s.nodes[id]
	}
	return out
}

// Edges returns a copy of all edges (optionally filtered by type).
func (s *Snapshot) Edges(types ...EdgeType) []Edge {
	return filterEdges(s.edges, types)
}

// NodeCount returns the number of nodes (optionally filtered by type),
// answered from the precomputed per-type lists.
func (s *Snapshot) NodeCount(types ...NodeType) int {
	if len(types) == 0 {
		return len(s.nodes)
	}
	n := 0
	for _, t := range types {
		if int(t) < NumNodeTypes {
			n += len(s.byType[t])
		}
	}
	return n
}

// EdgeCount returns the number of edges (optionally filtered by type),
// answered from the precomputed statistics.
func (s *Snapshot) EdgeCount(types ...EdgeType) int {
	if len(types) == 0 {
		return len(s.edges)
	}
	n := 0
	for _, t := range types {
		n += s.stats.EdgesByType[t.String()]
	}
	return n
}

// ComputeStats returns a copy of the precomputed per-type statistics.
func (s *Snapshot) ComputeStats() Stats {
	out := Stats{NodesByType: make(map[string]int, len(s.stats.NodesByType)), EdgesByType: make(map[string]int, len(s.stats.EdgesByType))}
	for k, v := range s.stats.NodesByType {
		out.NodesByType[k] = v
	}
	for k, v := range s.stats.EdgesByType {
		out.EdgesByType[k] = v
	}
	return out
}

// GrowthOn returns the number of nodes of type t first seen on the given
// day.
func (s *Snapshot) GrowthOn(t NodeType, day int) int {
	n := 0
	for _, id := range s.IDsOfType(t) {
		if s.nodes[id].FirstSeenDay == day {
			n++
		}
	}
	return n
}

// HasCycleIsA reports whether the IsA subgraph contains a cycle (the AO must
// remain a DAG).
func (s *Snapshot) HasCycleIsA() bool {
	state := make([]uint8, len(s.nodes)) // 0 unseen, 1 in stack, 2 done
	var dfs func(NodeID) bool
	dfs = func(v NodeID) bool {
		state[v] = 1
		cycle := false
		s.EachOut(v, func(e *Edge, _ *Node) bool {
			if e.Type == IsA {
				switch state[e.Dst] {
				case 1:
					cycle = true
				case 0:
					cycle = dfs(e.Dst)
				}
			}
			return !cycle
		})
		state[v] = 2
		return cycle
	}
	for i := range s.nodes {
		if state[i] == 0 && dfs(NodeID(i)) {
			return true
		}
	}
	return false
}

// WriteJSON serializes the snapshot; SnapshotFromJSON reads it back, and a
// snapshot loaded from a build artifact re-saves byte-for-byte.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(persisted{Nodes: s.nodes, Edges: s.edges})
}

// SaveFile writes the snapshot to path as JSON, the export format of
// giantctl convert. The write is crash-safe: bytes land in a temp file in
// the destination directory and are renamed into place only after a
// successful fsync, so a reader of the path never observes a partial file.
func (s *Snapshot) SaveFile(path string) error {
	return writeFileAtomic(path, s.WriteJSON)
}

// TermGrams returns the snapshot's term-gram presence index, building it
// on first use (safe under concurrent readers). The result is shared
// immutable state and must not be modified.
func (s *Snapshot) TermGrams() *TermGrams {
	s.gramsOnce.Do(func() {
		if s.grams == nil {
			s.grams = BuildTermGrams(s.nodes)
		}
	})
	return s.grams
}

// Search returns up to limit nodes whose phrase or alias contains the
// (case-insensitive) needle, in node-ID order, early-exiting as soon as
// limit matches are collected. A limit <= 0 means no limit. The term-gram
// index short-circuits needles no node can contain — a superset check, so
// pruned output is identical to the full scan's.
func (s *Snapshot) Search(needle string, limit int) []Node {
	needle = strings.ToLower(needle)
	if needle == "" {
		return nil
	}
	if !s.TermGrams().MayContain(needle) {
		return nil
	}
	return searchNodes(s.nodes, needle, limit)
}

// nodeMatches reports whether the node's phrase or an alias contains the
// (already lowercased) needle.
func nodeMatches(n *Node, needle string) bool {
	if strings.Contains(strings.ToLower(n.Phrase), needle) {
		return true
	}
	for _, a := range n.Aliases {
		if strings.Contains(strings.ToLower(a), needle) {
			return true
		}
	}
	return false
}

// String describes the snapshot for logs.
func (s *Snapshot) String() string {
	return fmt.Sprintf("ontology snapshot: %d nodes, %d edges", len(s.nodes), len(s.edges))
}
