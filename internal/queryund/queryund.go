// Package queryund implements §4's query understanding: detect whether a
// query conveys a concept or an entity, rewrite concept queries by expanding
// them with member entities ("q e_i"), and recommend correlated entities for
// entity queries.
package queryund

import (
	"giant/internal/ontology"
)

// Understander analyzes queries against an Attention Ontology snapshot.
type Understander struct {
	Onto *ontology.Snapshot
	// MaxExpansions caps rewrites/recommendations per query.
	MaxExpansions int
}

// DefaultMaxExpansions is the rewrite/recommendation cap New applies. A
// merge site folding per-shard partials (serve.Router) re-caps with the
// same constant, so the merged analysis matches a single-snapshot one.
const DefaultMaxExpansions = 5

// New builds an Understander.
func New(onto *ontology.Snapshot) *Understander {
	return &Understander{Onto: onto, MaxExpansions: DefaultMaxExpansions}
}

// Analysis is the structured interpretation of a query.
type Analysis struct {
	Query string
	// Concept is the concept phrase conveyed by the query, if any.
	Concept string
	// Entity is the entity conveyed by the query, if any.
	Entity string
	// Rewrites are "q e_i" expansions for concept queries.
	Rewrites []string
	// Recommendations are correlated entities for entity queries.
	Recommendations []string
}

// Analyze interprets a query. It is the merge of a single partial over the
// whole view — the same code path the sharded merge sites run. The longest
// concept phrase wins by its normalized length (an earlier version compared
// the normalized candidate against the raw best phrase, which could pick a
// shorter concept when punctuation inflated the raw length).
func (u *Understander) Analyze(query string) Analysis {
	return Merge(query, []*Partial{u.Partial(ontology.UnionScope(u.Onto), query)}, u.MaxExpansions)
}

// Conceptualize returns just the concept conveyed by the query ("" if none).
func (u *Understander) Conceptualize(query string) string {
	return u.Analyze(query).Concept
}
