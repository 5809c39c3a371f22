// Package ontology implements the Attention Ontology of §2: a DAG of five
// node types (category, concept, entity, topic, event) connected by three
// edge types (isA, involve, correlate), with alias lists per node. The
// build writes through an Ontology; every read — lookups, traversal,
// statistics, search, JSON and binary persistence, sharding — goes
// through the immutable Snapshot it produces.
package ontology

import (
	"fmt"
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

// Ontology is the build's write side of the Attention Ontology: it takes
// nodes, aliases, attributes and edges, deduplicating as it goes, and
// answers one read — Lookup, so the build can resolve a phrase it added —
// before handing everything else to the Snapshot it produces. Safe for
// concurrent use.
//
// An Ontology adopted from a Snapshot (FromSnapshot) starts out as nothing
// but a reference to that snapshot: the node/edge lists and lookup maps
// below are materialized by the first mutator, and Snapshot() hands the
// adopted snapshot back until then. The incremental path adopts one
// generation per batch and only ever asks for Snapshot(), so it never pays
// for the maps.
type Ontology struct {
	mu sync.RWMutex

	// snap is the immutable snapshot the ontology was adopted from and still
	// equals; the first mutator materializes the fields below from it and
	// clears it. While snap is set, the fields below are unset.
	snap *Snapshot

	nodes    []Node
	edges    []Edge
	byPhrase map[string]NodeID
	edgeSet  map[edgeKey]bool
}

type edgeKey struct {
	src, dst NodeID
	typ      EdgeType
}

// New returns an empty ontology.
func New() *Ontology {
	return &Ontology{
		byPhrase: make(map[string]NodeID),
		edgeSet:  make(map[edgeKey]bool),
	}
}

// divergeLocked prepares for a mutation: an adopted ontology builds its
// mutable node/edge lists and lookup maps from its snapshot, sharing
// nothing mutable with it, and lets the snapshot, about to go stale, go
// (its holders keep an undisturbed world). Caller holds the write lock.
func (o *Ontology) divergeLocked() {
	s := o.snap
	if s == nil {
		return
	}
	o.snap = nil
	o.nodes = copyNodes(s.nodes)
	o.edges = append([]Edge(nil), s.edges...)
	o.byPhrase = make(map[string]NodeID, len(o.nodes))
	for i := range o.nodes {
		n := &o.nodes[i]
		key := nodeKey(n.Type, n.Phrase)
		if _, dup := o.byPhrase[key]; !dup {
			o.byPhrase[key] = n.ID
		}
	}
	o.edgeSet = make(map[edgeKey]bool, len(o.edges))
	for _, e := range o.edges {
		o.edgeSet[edgeKey{e.Src, e.Dst, e.Type}] = true
	}
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
	o.edges = append(o.edges, e)
	return nil
}

// Lookup resolves a (type, phrase) pair to the ID of the node holding it
// (case-insensitively) — the one read the build needs while it still adds
// nodes and edges. Every other read goes through Snapshot.
func (o *Ontology) Lookup(t NodeType, phrase string) (NodeID, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if o.snap != nil {
		return o.snap.Lookup(t, phrase)
	}
	id, ok := o.byPhrase[nodeKey(t, phrase)]
	return id, ok
}

// Stats summarizes node and edge counts per type (Table 1 / Table 2 rows).
type Stats struct {
	NodesByType map[string]int `json:"nodes_by_type"`
	EdgesByType map[string]int `json:"edges_by_type"`
}

// fromNodesEdges rebuilds an Ontology from persisted node and edge lists
// through the builder, so a repeated phrase folds into its first node and
// an invalid edge is an error, preserving every node attribute.
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
// returned Ontology references s and copies nothing until the first
// mutator runs; until then Snapshot() returns s itself (s is immutable, so
// sharing it is safe) and Lookup answers from s, and a mutation works on a
// private copy, never on s. The build ends by adopting its own snapshot. The incremental-update path uses this to
// re-adopt a delta-applied snapshot as the system's working ontology
// without rebuilding the world once per batch. It cannot fail: every way of
// constructing a Snapshot has already validated IDs and edge endpoints.
func FromSnapshot(s *Snapshot) *Ontology {
	return &Ontology{snap: s}
}

func nodeKey(t NodeType, phrase string) string {
	return t.String() + "\x00" + strings.ToLower(phrase)
}
