package ontology

import (
	"iter"
	"slices"
)

// Scope is the merge participant abstraction behind the union-exact
// application endpoints (/v1/tag, /v1/query/rewrite, /v1/story). A scope is
// a snapshot plus two maps that let per-shard code extract *partial*
// candidate sets carrying union node IDs:
//
//   - Home reports whether the scope owns the node: every node of the union
//     is home in exactly one scope of a partition, so concatenating the home
//     sets of all scopes reproduces the union node set without duplicates.
//   - UID translates the scope's local node ID into the union ID, the shared
//     currency every merge site orders and deduplicates by.
//
// Two partitions cover every serving mode:
//
//   - UnionScope(s): a single scope where everything is home and IDs are
//     already union IDs. Merging the one partial extracted from it IS the
//     single-snapshot computation — which is how a process holding the union
//     and the router's scatter-gather share one code path byte-identically.
//   - ProjectionScope(p): a shard-file projection (home prefix + ghosts)
//     served by a standalone shard process; UID goes through the
//     projection's union-ID table.
type Scope struct {
	Snap *Snapshot
	// Home reports whether this scope owns the node with the scope-local
	// ID.
	Home func(NodeID) bool
	// UID maps a scope-local node ID to its union ID.
	UID func(NodeID) NodeID
}

// UnionScope wraps a full union snapshot: every node is home, IDs are
// union IDs.
func UnionScope(s *Snapshot) Scope {
	return Scope{
		Snap: s,
		Home: func(NodeID) bool { return true },
		UID:  func(id NodeID) NodeID { return id },
	}
}

// ProjectionScope scopes a shard projection: home means the node sits in the
// projection's home prefix, and UID translates through its union-ID table.
func ProjectionScope(p *ShardProjection) Scope {
	return Scope{
		Snap: p.Snap,
		Home: p.IsHome,
		UID:  p.UnionID,
	}
}

// HomeNodes returns the scope's home nodes of the given type in ascending
// union-ID order, with each node's ID rewritten to its union ID: a union
// snapshot lists a type in ID order, and a projection keeps its home nodes
// in union-ID order. For every partition above, concatenating HomeNodes
// across scopes and sorting by ID equals the union snapshot's Nodes(t) —
// the invariant all application merges rest on.
func (s Scope) HomeNodes(t NodeType) []Node {
	nodes := s.Snap.Nodes(t)
	out := nodes[:0]
	for i := range nodes {
		if !s.Home(nodes[i].ID) {
			continue
		}
		nodes[i].ID = s.UID(nodes[i].ID)
		out = append(out, nodes[i])
	}
	return out
}

// HomePhrases yields the tokenized phrases of the scope's home nodes of
// type t that a request with tokens toks can match, in HomeNodes' order,
// each with its ID rewritten to the union ID. A phrase is yielded when at
// least one of its token positions holds a token of toks and those
// positions make up at least the fraction frac of all its positions, so a
// phrase with no tokens is never yielded.
//
// It reads the snapshot's PhraseTokens and PhrasePostings and merges the
// ascending posting lists of the request's distinct tokens, summing each
// phrase's counts as it passes: it tokenizes nothing, copies no node,
// visits only phrases sharing a token with the request, and allocates in
// proportion to len(toks) alone.
func (s Scope) HomePhrases(t NodeType, toks []string, frac float64) iter.Seq[PhraseTokens] {
	return func(yield func(PhraseTokens) bool) {
		post := s.Snap.PhrasePostings(t)
		list := s.Snap.PhraseTokens(t)
		distinct := slices.Clone(toks)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		heads := make([][]Posting, 0, len(distinct))
		for _, tok := range distinct {
			if l := post[tok]; len(l) > 0 {
				heads = append(heads, l)
			}
		}
		for len(heads) > 0 {
			next := heads[0][0].Phrase
			for _, h := range heads[1:] {
				next = min(next, h[0].Phrase)
			}
			count := 0
			live := heads[:0]
			for _, h := range heads {
				if h[0].Phrase == next {
					count += int(h[0].Count)
					h = h[1:]
				}
				if len(h) > 0 {
					live = append(live, h)
				}
			}
			heads = live
			p := list[next]
			if float64(count)/float64(len(p.Tokens)) < frac || !s.Home(p.ID) {
				continue
			}
			p.ID = s.UID(p.ID)
			if !yield(p) {
				return
			}
		}
	}
}

// FindHome resolves a (type, phrase) pair to a home node, with its ID
// rewritten to the union ID. Exactly one scope of a partition resolves any
// given pair, because canonical phrases are unique per type in the union.
// The second return is the scope-local ID for edge traversal via Snap.
func (s Scope) FindHome(t NodeType, phrase string) (Node, NodeID, bool) {
	n, ok := s.Snap.Find(t, phrase)
	if !ok || !s.Home(n.ID) {
		return Node{}, 0, false
	}
	local := n.ID
	n.ID = s.UID(local)
	return n, local, true
}
