package ontology

// View is the read-only surface of an Attention Ontology. It is implemented
// by both *Ontology (mutex-guarded, mutable, used by the offline build) and
// *Snapshot (immutable, lock-free, used by the online serving tier), so the
// §4 application packages — tagging, query understanding, story trees — can
// run against either without caring which phase of the pipeline they are in.
type View interface {
	// Get returns a copy of the node with the given ID.
	Get(id NodeID) (Node, bool)
	// Find returns the node with the given type and (case-insensitive)
	// phrase.
	Find(t NodeType, phrase string) (Node, bool)
	// FindAny returns the first node with the phrase under any type, in
	// NodeType order.
	FindAny(phrase string) (Node, bool)
	// Children returns nodes reachable from id via out-edges of type t.
	Children(id NodeID, t EdgeType) []Node
	// Parents returns nodes with an edge of type t into id.
	Parents(id NodeID, t EdgeType) []Node
	// Ancestors returns all transitive IsA parents of id.
	Ancestors(id NodeID) []Node
	// Nodes returns a copy of all nodes (optionally filtered by type).
	Nodes(types ...NodeType) []Node
	// PhraseTokens returns the tokenized phrases of the nodes of type t,
	// in ID order.
	PhraseTokens(t NodeType) []PhraseTokens
	// PhrasePostings returns the inverted index from token to the
	// phrases of type t holding it, by their index in PhraseTokens(t).
	PhrasePostings(t NodeType) map[string][]Posting
	// Edges returns a copy of all edges (optionally filtered by type).
	Edges(types ...EdgeType) []Edge
	// NodeCount returns the number of nodes (optionally filtered by type).
	NodeCount(types ...NodeType) int
	// EdgeCount returns the number of edges (optionally filtered by type).
	EdgeCount(types ...EdgeType) int
	// ComputeStats summarizes node and edge counts per type.
	ComputeStats() Stats
}

var (
	_ View = (*Ontology)(nil)
	_ View = (*Snapshot)(nil)
)
