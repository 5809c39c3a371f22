// Package ontology implements the Attention Ontology of §2: a DAG of five
// node types (category, concept, entity, topic, event) connected by three
// edge types (isA, involve, correlate), with alias lists per node,
// concurrency-safe mutation, traversal helpers, statistics and JSON
// persistence.
package ontology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// NodeType is one of the five attention types.
type NodeType uint8

// Node types (§2).
const (
	Category NodeType = iota
	Concept
	Entity
	Topic
	Event
	NumNodeTypes = 5
)

// String names the node type.
func (t NodeType) String() string {
	switch t {
	case Category:
		return "category"
	case Concept:
		return "concept"
	case Entity:
		return "entity"
	case Topic:
		return "topic"
	case Event:
		return "event"
	default:
		return "unknown"
	}
}

// ParseNodeType resolves a node-type name ("category", "concept", …) back
// to its NodeType, the inverse of NodeType.String.
func ParseNodeType(s string) (NodeType, error) {
	for t := NodeType(0); t < NumNodeTypes; t++ {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("ontology: unknown node type %q", s)
}

// EdgeType is one of the three relationship types.
type EdgeType uint8

// Edge types (§2).
const (
	IsA EdgeType = iota
	Involve
	Correlate
	NumEdgeTypes = 3
)

// String names the edge type.
func (t EdgeType) String() string {
	switch t {
	case IsA:
		return "isA"
	case Involve:
		return "involve"
	case Correlate:
		return "correlate"
	default:
		return "unknown"
	}
}

// NodeID identifies a node.
type NodeID int

// Node is one attention node. Phrase is the canonical surface form; Aliases
// holds merged near-duplicate phrasings (attention phrase normalization).
type Node struct {
	ID      NodeID   `json:"id"`
	Type    NodeType `json:"type"`
	Phrase  string   `json:"phrase"`
	Aliases []string `json:"aliases,omitempty"`

	// Event/topic attributes (§2): involved entity phrases, trigger, time
	// and location.
	Trigger  string `json:"trigger,omitempty"`
	Location string `json:"location,omitempty"`
	Day      int    `json:"day,omitempty"`

	// FirstSeenDay supports growth accounting (Table 1 "Grow/day").
	FirstSeenDay int `json:"first_seen_day,omitempty"`

	// LastSeenDay is the most recent day the phrase was (re-)observed by a
	// build or an incremental update batch. The delta subsystem's TTL
	// retirement compares it against the current day; zero means "never
	// refreshed since first seen".
	LastSeenDay int `json:"last_seen_day,omitempty"`
}

// Edge is a typed directed edge src --type--> dst. For isA the destination
// is the instance ("Huawei Mate20 Pro" isA "Huawei Cellphones" is stored as
// src=concept, dst=entity per §2's source/destination wording).
type Edge struct {
	Src    NodeID   `json:"src"`
	Dst    NodeID   `json:"dst"`
	Type   EdgeType `json:"type"`
	Weight float64  `json:"weight,omitempty"`
}

// Ontology is the Attention Ontology store. Safe for concurrent use.
//
// An Ontology adopted from a Snapshot (FromSnapshot) starts out as nothing
// but a reference to that snapshot: the node/edge lists and lookup maps
// below are materialized on the first call that reads or mutates them, and
// Snapshot() hands the adopted snapshot back for as long as no mutator has
// run. The incremental path adopts one generation per batch and only ever
// asks for Snapshot(), so it never pays for the maps.
type Ontology struct {
	mu sync.RWMutex

	// snap is the immutable snapshot the ontology was adopted from and still
	// equals; the first mutator clears it. Invariant: snap != nil || built.
	snap *Snapshot
	// built reports whether the fields below are materialized. It only ever
	// goes from false to true, under the write lock.
	built bool

	nodes    []Node
	edges    []Edge
	byPhrase map[string]NodeID
	out      map[NodeID][]int // edge indices by source
	in       map[NodeID][]int // edge indices by destination
	edgeSet  map[edgeKey]bool
}

type edgeKey struct {
	src, dst NodeID
	typ      EdgeType
}

// New returns an empty ontology.
func New() *Ontology {
	return &Ontology{
		built:    true,
		byPhrase: make(map[string]NodeID),
		out:      make(map[NodeID][]int),
		in:       make(map[NodeID][]int),
		edgeSet:  make(map[edgeKey]bool),
	}
}

// rlock takes the read lock with the mutable state materialized.
func (o *Ontology) rlock() {
	o.mu.RLock()
	if o.built {
		return
	}
	o.mu.RUnlock()
	o.mu.Lock()
	o.materializeLocked()
	o.mu.Unlock()
	o.mu.RLock() // built never reverts
}

// divergeLocked prepares for a mutation: the mutable state is materialized
// and the adopted snapshot, about to go stale, is let go (its holders keep
// an undisturbed world). Caller holds the write lock.
func (o *Ontology) divergeLocked() {
	o.materializeLocked()
	o.snap = nil
}

// materializeLocked builds the mutable node/edge lists and lookup maps of
// an adopted ontology from its snapshot, sharing nothing mutable with it.
// Caller holds the write lock.
func (o *Ontology) materializeLocked() {
	if o.built {
		return
	}
	s := o.snap
	// Empty lists stay nil, as in an ontology built by New (WriteJSON
	// renders them differently from empty non-nil ones).
	if len(s.nodes) > 0 {
		o.nodes = copyNodes(s.nodes)
	}
	o.edges = append([]Edge(nil), s.edges...)
	o.byPhrase = make(map[string]NodeID, len(o.nodes))
	for i := range o.nodes {
		n := &o.nodes[i]
		key := nodeKey(n.Type, n.Phrase)
		if _, dup := o.byPhrase[key]; !dup {
			o.byPhrase[key] = n.ID
		}
	}
	o.out = make(map[NodeID][]int)
	o.in = make(map[NodeID][]int)
	o.edgeSet = make(map[edgeKey]bool, len(o.edges))
	for i, e := range o.edges {
		o.edgeSet[edgeKey{e.Src, e.Dst, e.Type}] = true
		o.out[e.Src] = append(o.out[e.Src], i)
		o.in[e.Dst] = append(o.in[e.Dst], i)
	}
	o.built = true
}

// copyNodes deep-copies a node list (alias slices included).
func copyNodes(src []Node) []Node {
	nodes := make([]Node, len(src))
	copy(nodes, src)
	for i := range nodes {
		if len(nodes[i].Aliases) > 0 {
			nodes[i].Aliases = append([]string(nil), nodes[i].Aliases...)
		}
	}
	return nodes
}

// AddNode inserts a node with the given type and phrase, returning the new
// or existing ID (phrases are unique per ontology; a second insert with the
// same phrase returns the original node).
func (o *Ontology) AddNode(t NodeType, phrase string) NodeID {
	return o.AddNodeAt(t, phrase, 0)
}

// AddNodeAt is AddNode with an explicit first-seen day.
func (o *Ontology) AddNodeAt(t NodeType, phrase string, day int) NodeID {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.divergeLocked()
	return o.addNodeLocked(t, phrase, day)
}

func (o *Ontology) addNodeLocked(t NodeType, phrase string, day int) NodeID {
	key := nodeKey(t, phrase)
	if id, ok := o.byPhrase[key]; ok {
		return id
	}
	id := NodeID(len(o.nodes))
	o.nodes = append(o.nodes, Node{ID: id, Type: t, Phrase: phrase, FirstSeenDay: day})
	o.byPhrase[key] = id
	return id
}

// NodeSpec describes one node for batch insertion.
type NodeSpec struct {
	Type   NodeType
	Phrase string
	Day    int
}

// AddNodes inserts every spec under a single lock acquisition — the batch
// analogue of AddNodeAt for assembly loops that would otherwise contend on
// the mutex once per node. It returns the new-or-existing ID of each spec,
// in order.
func (o *Ontology) AddNodes(specs []NodeSpec) []NodeID {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.divergeLocked()
	ids := make([]NodeID, len(specs))
	for i, s := range specs {
		ids[i] = o.addNodeLocked(s.Type, s.Phrase, s.Day)
	}
	return ids
}

// AddAlias merges alias into node id's alias list.
func (o *Ontology) AddAlias(id NodeID, alias string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.divergeLocked()
	if int(id) >= len(o.nodes) || alias == o.nodes[id].Phrase {
		return
	}
	for _, a := range o.nodes[id].Aliases {
		if a == alias {
			return
		}
	}
	o.nodes[id].Aliases = append(o.nodes[id].Aliases, alias)
}

// SetEventAttrs fills the event/topic attributes of a node.
func (o *Ontology) SetEventAttrs(id NodeID, trigger, location string, day int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.divergeLocked()
	if int(id) >= len(o.nodes) {
		return
	}
	n := &o.nodes[id]
	n.Trigger, n.Location, n.Day = trigger, location, day
}

// SetLastSeen records the most recent day the node's phrase was observed
// (see Node.LastSeenDay); earlier values are never overwritten by smaller
// days.
func (o *Ontology) SetLastSeen(id NodeID, day int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.divergeLocked()
	if int(id) >= len(o.nodes) {
		return
	}
	if day > o.nodes[id].LastSeenDay {
		o.nodes[id].LastSeenDay = day
	}
}

// AddEdge inserts src --type--> dst with a weight, deduplicating repeats
// (the first weight wins). Self-edges are rejected.
func (o *Ontology) AddEdge(src, dst NodeID, t EdgeType, weight float64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.divergeLocked()
	return o.addEdgeLocked(Edge{Src: src, Dst: dst, Type: t, Weight: weight})
}

// AddEdges inserts a batch of edges under a single lock acquisition, with
// AddEdge's semantics per element. The first invalid edge aborts the batch
// (edges before it stay inserted).
func (o *Ontology) AddEdges(edges []Edge) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.divergeLocked()
	for _, e := range edges {
		if err := o.addEdgeLocked(e); err != nil {
			return err
		}
	}
	return nil
}

func (o *Ontology) addEdgeLocked(e Edge) error {
	if e.Src == e.Dst {
		return fmt.Errorf("ontology: self edge on node %d", e.Src)
	}
	if int(e.Src) >= len(o.nodes) || int(e.Dst) >= len(o.nodes) || e.Src < 0 || e.Dst < 0 {
		return fmt.Errorf("ontology: edge endpoints out of range (%d,%d)", e.Src, e.Dst)
	}
	k := edgeKey{e.Src, e.Dst, e.Type}
	if o.edgeSet[k] {
		return nil
	}
	o.edgeSet[k] = true
	idx := len(o.edges)
	o.edges = append(o.edges, e)
	o.out[e.Src] = append(o.out[e.Src], idx)
	o.in[e.Dst] = append(o.in[e.Dst], idx)
	return nil
}

// NodeCount returns the number of nodes (optionally filtered by type).
func (o *Ontology) NodeCount(types ...NodeType) int {
	o.rlock()
	defer o.mu.RUnlock()
	if len(types) == 0 {
		return len(o.nodes)
	}
	n := 0
	for _, nd := range o.nodes {
		for _, t := range types {
			if nd.Type == t {
				n++
			}
		}
	}
	return n
}

// EdgeCount returns the number of edges (optionally filtered by type).
func (o *Ontology) EdgeCount(types ...EdgeType) int {
	o.rlock()
	defer o.mu.RUnlock()
	if len(types) == 0 {
		return len(o.edges)
	}
	n := 0
	for _, e := range o.edges {
		for _, t := range types {
			if e.Type == t {
				n++
			}
		}
	}
	return n
}

// Get returns a copy of the node.
func (o *Ontology) Get(id NodeID) (Node, bool) {
	o.rlock()
	defer o.mu.RUnlock()
	if int(id) < 0 || int(id) >= len(o.nodes) {
		return Node{}, false
	}
	return o.nodes[id], true
}

// Find returns the node with the given type and phrase.
func (o *Ontology) Find(t NodeType, phrase string) (Node, bool) {
	o.rlock()
	id, ok := o.byPhrase[nodeKey(t, phrase)]
	o.mu.RUnlock()
	if !ok {
		return Node{}, false
	}
	return o.Get(id)
}

// FindAny returns the first node with the phrase under any type.
func (o *Ontology) FindAny(phrase string) (Node, bool) {
	o.rlock()
	defer o.mu.RUnlock()
	for t := NodeType(0); t < NumNodeTypes; t++ {
		if id, ok := o.byPhrase[nodeKey(t, phrase)]; ok {
			return o.nodes[id], true
		}
	}
	return Node{}, false
}

// Children returns nodes reachable from id via out-edges of type t
// (e.g. the entities of a concept under IsA).
func (o *Ontology) Children(id NodeID, t EdgeType) []Node {
	o.rlock()
	defer o.mu.RUnlock()
	var out []Node
	for _, ei := range o.out[id] {
		e := o.edges[ei]
		if e.Type == t {
			out = append(out, o.nodes[e.Dst])
		}
	}
	return out
}

// Parents returns nodes with an edge of type t INTO id (e.g. the concepts an
// entity belongs to under IsA).
func (o *Ontology) Parents(id NodeID, t EdgeType) []Node {
	o.rlock()
	defer o.mu.RUnlock()
	var out []Node
	for _, ei := range o.in[id] {
		e := o.edges[ei]
		if e.Type == t {
			out = append(out, o.nodes[e.Src])
		}
	}
	return out
}

// Ancestors returns all transitive IsA parents of id.
func (o *Ontology) Ancestors(id NodeID) []Node {
	seen := map[NodeID]bool{id: true}
	var out []Node
	frontier := []NodeID{id}
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, f := range frontier {
			for _, p := range o.Parents(f, IsA) {
				if !seen[p.ID] {
					seen[p.ID] = true
					out = append(out, p)
					next = append(next, p.ID)
				}
			}
		}
		frontier = next
	}
	return out
}

// Nodes returns a copy of all nodes (optionally filtered by type).
func (o *Ontology) Nodes(types ...NodeType) []Node {
	o.rlock()
	defer o.mu.RUnlock()
	return filterNodes(o.nodes, types)
}

// Edges returns a copy of all edges (optionally filtered by type).
func (o *Ontology) Edges(types ...EdgeType) []Edge {
	o.rlock()
	defer o.mu.RUnlock()
	return filterEdges(o.edges, types)
}

// filterNodes copies nodes, keeping those matching any of the given types
// (all of them when types is empty). Shared by Ontology (under its read
// lock) and Snapshot.
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

// Stats summarizes node and edge counts per type (Table 1 / Table 2 rows).
type Stats struct {
	NodesByType map[string]int `json:"nodes_by_type"`
	EdgesByType map[string]int `json:"edges_by_type"`
}

// ComputeStats builds the summary.
func (o *Ontology) ComputeStats() Stats {
	o.rlock()
	defer o.mu.RUnlock()
	s := Stats{NodesByType: map[string]int{}, EdgesByType: map[string]int{}}
	for _, n := range o.nodes {
		s.NodesByType[n.Type.String()]++
	}
	for _, e := range o.edges {
		s.EdgesByType[e.Type.String()]++
	}
	return s
}

// GrowthOn returns the number of nodes of type t first seen on the given
// day.
func (o *Ontology) GrowthOn(t NodeType, day int) int {
	o.rlock()
	defer o.mu.RUnlock()
	n := 0
	for _, nd := range o.nodes {
		if nd.Type == t && nd.FirstSeenDay == day {
			n++
		}
	}
	return n
}

// HasCycleIsA reports whether the IsA subgraph contains a cycle (the AO must
// remain a DAG).
func (o *Ontology) HasCycleIsA() bool {
	o.rlock()
	defer o.mu.RUnlock()
	state := make([]uint8, len(o.nodes)) // 0 unseen, 1 in stack, 2 done
	var dfs func(NodeID) bool
	dfs = func(v NodeID) bool {
		state[v] = 1
		for _, ei := range o.out[v] {
			e := o.edges[ei]
			if e.Type != IsA {
				continue
			}
			switch state[e.Dst] {
			case 1:
				return true
			case 0:
				if dfs(e.Dst) {
					return true
				}
			}
		}
		state[v] = 2
		return false
	}
	for i := range o.nodes {
		if state[i] == 0 && dfs(NodeID(i)) {
			return true
		}
	}
	return false
}

type persisted struct {
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
}

// WriteJSON serializes the ontology.
func (o *Ontology) WriteJSON(w io.Writer) error {
	o.rlock()
	p := persisted{Nodes: o.nodes, Edges: o.edges}
	o.mu.RUnlock()
	return writePersisted(w, p)
}

func writePersisted(w io.Writer, p persisted) error {
	enc := json.NewEncoder(w)
	return enc.Encode(p)
}

// ReadJSON deserializes an ontology written by WriteJSON. A shard
// projection file (giantctl shard) is rejected: its node list is one
// shard's home nodes plus ghosts under local IDs — a plausible-looking
// but wrong world if ever adopted as the whole ontology.
func ReadJSON(r io.Reader) (*Ontology, error) {
	var p struct {
		persisted
		NumShards int `json:"num_shards"`
	}
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("ontology: decode: %w", err)
	}
	if p.NumShards > 0 {
		return nil, fmt.Errorf("ontology: this is a shard projection file (%d shards); boot it with giantd -shard i/%d or load it with LoadShardFile", p.NumShards, p.NumShards)
	}
	return fromNodesEdges(p.Nodes, p.Edges)
}

// fromNodesEdges rebuilds a mutable Ontology from persisted node and edge
// lists, preserving every node attribute.
func fromNodesEdges(nodes []Node, edges []Edge) (*Ontology, error) {
	o := New()
	for _, n := range nodes {
		id := o.AddNodeAt(n.Type, n.Phrase, n.FirstSeenDay)
		o.SetEventAttrs(id, n.Trigger, n.Location, n.Day)
		o.SetLastSeen(id, n.LastSeenDay)
		for _, a := range n.Aliases {
			o.AddAlias(id, a)
		}
	}
	for _, e := range edges {
		if err := o.AddEdge(e.Src, e.Dst, e.Type, e.Weight); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// FromSnapshot adopts the snapshot as a mutable Ontology equivalent to it —
// the inverse of Ontology.Snapshot — in O(1). The sharing contract: the
// returned Ontology references s and copies nothing until a method needs
// the mutable state; until the first mutator runs, Snapshot() returns s
// itself (s is immutable, so sharing it is safe), and a mutation works on a
// private copy, never on s. The incremental-update path uses this to
// re-adopt a delta-applied snapshot as the system's working ontology
// without rebuilding the world once per batch. It cannot fail: every way of
// constructing a Snapshot has already validated IDs and edge endpoints.
func FromSnapshot(s *Snapshot) *Ontology {
	return &Ontology{snap: s}
}

// SaveFile writes the ontology to path as JSON, crash-safely (see
// Snapshot.SaveFile).
func (o *Ontology) SaveFile(path string) error {
	return writeFileAtomic(path, o.WriteJSON)
}

// LoadFile reads an ontology from path, auto-detecting the format by
// magic: a GIANTBIN snapshot decodes through the columnar path and is
// rebuilt into a mutable Ontology; anything else parses as JSON. Binary
// shard projection files are rejected just like their JSON counterparts.
func LoadFile(path string) (*Ontology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if IsBinary(data) {
		snap, err := DecodeSnapshotBinary(data)
		if err != nil {
			return nil, fmt.Errorf("ontology: load %s: %w", path, err)
		}
		return FromSnapshot(snap), nil
	}
	return ReadJSON(bytes.NewReader(data))
}

// Dump renders a sorted human-readable listing (debugging aid).
func (o *Ontology) Dump(w io.Writer) {
	nodes := o.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for _, n := range nodes {
		fmt.Fprintf(w, "[%d] %s %q\n", n.ID, n.Type, n.Phrase)
	}
}

func nodeKey(t NodeType, phrase string) string {
	return t.String() + "\x00" + strings.ToLower(phrase)
}
