package queryund

import (
	"sort"
	"strings"

	"giant/internal/nlp"
	"giant/internal/ontology"
)

// This file decomposes query understanding into per-scope partials plus a
// deterministic merge (see ontology.Scope): each scope scans only its home
// concepts/entities and reports at most three candidates, and a merge site
// folds them into the final Analysis. Merging the single partial of a
// UnionScope IS the single-snapshot computation, so Analyze itself runs on
// this path and every serving mode stays byte-identical.
//
// A candidate's expansions are computed by its home scope — the scope holds
// every edge of a home node, and ghost endpoints carry exact phrases — so
// the merge site never needs a second round trip. Rewrites ship as the bare
// member-entity phrases and are prefixed with the raw query at merge time,
// which keeps partials dependent only on the normalized query (and thus
// cacheable per generation + normalized query).

// ConceptCand is a scope's best home concept contained in the query:
// longest normalized phrase, ties to the lowest union ID.
type ConceptCand struct {
	ID     ontology.NodeID `json:"id"`
	Phrase string          `json:"phrase"`
	// NormLen is the byte length of the normalized phrase, the "longest
	// concept" merge key.
	NormLen int `json:"norm_len"`
	// RewritePhrases are the concept's member-entity phrases in expansion
	// order, already capped at MaxExpansions.
	RewritePhrases []string `json:"rewrite_phrases,omitempty"`
}

// EntityCand is a home entity conveyed by the query, with its correlated
// recommendations precomputed by the home scope.
type EntityCand struct {
	ID     ontology.NodeID `json:"id"`
	Phrase string          `json:"phrase"`
	Recs   []string        `json:"recs,omitempty"`
}

// Partial is one scope's contribution to a query analysis.
type Partial struct {
	Concept *ConceptCand `json:"concept,omitempty"`
	// EntityExact matches the normalized query exactly; at most one scope
	// of a partition reports it.
	EntityExact *EntityCand `json:"entity_exact,omitempty"`
	// EntityContained is the scope's lowest-union-ID entity whose phrase is
	// contained in the query.
	EntityContained *EntityCand `json:"entity_contained,omitempty"`
}

// Partial extracts the scope's candidates for a query. The result depends
// only on the scope's view and the normalized query.
func (u *Understander) Partial(scope ontology.Scope, query string) *Partial {
	qtoks := nlp.Tokenize(query)
	qnorm := strings.Join(qtoks, " ")
	padded := " " + qnorm + " "
	p := &Partial{}

	// Concept detection: longest home concept phrase contained in the
	// query; the strict > keeps the lowest union ID on ties, matching the
	// union scan order. Only phrases whose every token is a query token
	// are visited: a containment bounded by spaces covers whole query
	// tokens, and no token holds a space.
	bestPhrase, bestLen := "", 0
	var bestID ontology.NodeID
	for c := range scope.HomePhrases(ontology.Concept, qtoks, 1) {
		if len(c.Norm) > bestLen && containsPhrase(padded, c.Norm) {
			bestPhrase, bestLen, bestID = c.Phrase, len(c.Norm), c.ID
		}
	}
	if bestLen > 0 {
		cand := &ConceptCand{ID: bestID, Phrase: bestPhrase, NormLen: bestLen}
		if _, local, ok := scope.FindHome(ontology.Concept, bestPhrase); ok {
			children := scope.Snap.Children(local, ontology.IsA)
			sort.Slice(children, func(i, j int) bool { return children[i].Phrase < children[j].Phrase })
			for _, ch := range children {
				if ch.Type != ontology.Entity {
					continue
				}
				cand.RewritePhrases = append(cand.RewritePhrases, ch.Phrase)
				if len(cand.RewritePhrases) >= u.MaxExpansions {
					break
				}
			}
		}
		p.Concept = cand
	}

	// Entity detection: exact normalized-query match, plus the first home
	// entity (ascending union ID) contained in the query.
	if ent, local, ok := scope.FindHome(ontology.Entity, qnorm); ok {
		p.EntityExact = &EntityCand{ID: ent.ID, Phrase: ent.Phrase, Recs: u.recommendations(scope, local, ent.Phrase)}
	}
	for e := range scope.HomePhrases(ontology.Entity, qtoks, 1) {
		if containsPhrase(padded, e.Norm) {
			cand := &EntityCand{ID: e.ID, Phrase: e.Phrase}
			if _, local, ok := scope.FindHome(ontology.Entity, e.Phrase); ok {
				cand.Recs = u.recommendations(scope, local, e.Phrase)
			}
			p.EntityContained = cand
			break
		}
	}
	return p
}

// containsPhrase reports whether p is non-empty and padded contains
// " "+p+" ", without building that needle: some occurrence of p sits
// between two spaces.
func containsPhrase(padded, p string) bool {
	if p == "" {
		return false
	}
	for i := 0; ; i++ {
		j := strings.Index(padded[i:], p)
		if j < 0 {
			return false
		}
		i += j
		if i > 0 && padded[i-1] == ' ' && i+len(p) < len(padded) && padded[i+len(p)] == ' ' {
			return true
		}
	}
}

// recommendations lists correlated entity phrases for a home entity, sorted
// and deduplicated, capped at MaxExpansions.
func (u *Understander) recommendations(scope ontology.Scope, local ontology.NodeID, entityPhrase string) []string {
	var correlated []string
	for _, n := range scope.Snap.Children(local, ontology.Correlate) {
		correlated = append(correlated, n.Phrase)
	}
	for _, n := range scope.Snap.Parents(local, ontology.Correlate) {
		correlated = append(correlated, n.Phrase)
	}
	sort.Strings(correlated)
	seen := map[string]bool{entityPhrase: true}
	var recs []string
	for _, c := range correlated {
		if !seen[c] {
			seen[c] = true
			recs = append(recs, c)
			if len(recs) >= u.MaxExpansions {
				break
			}
		}
	}
	return recs
}

// Merge folds per-scope partials into the final Analysis: the longest
// concept wins (ties to the lowest union ID), an exact entity match beats
// any contained one, and contained candidates resolve to the lowest union
// ID — exactly the precedence of the single-snapshot scan.
func Merge(query string, parts []*Partial, maxExpansions int) Analysis {
	a := Analysis{Query: query}

	var best *ConceptCand
	for _, p := range parts {
		if p == nil || p.Concept == nil {
			continue
		}
		c := p.Concept
		if best == nil || c.NormLen > best.NormLen || (c.NormLen == best.NormLen && c.ID < best.ID) {
			best = c
		}
	}
	if best != nil {
		a.Concept = best.Phrase
		for _, chp := range best.RewritePhrases {
			a.Rewrites = append(a.Rewrites, query+" "+chp)
			if len(a.Rewrites) >= maxExpansions {
				break
			}
		}
	}

	var exact, contained *EntityCand
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.EntityExact != nil {
			exact = p.EntityExact
		}
		if p.EntityContained != nil && (contained == nil || p.EntityContained.ID < contained.ID) {
			contained = p.EntityContained
		}
	}
	ent := exact
	if ent == nil {
		ent = contained
	}
	if ent != nil {
		a.Entity = ent.Phrase
		for _, rec := range ent.Recs {
			a.Recommendations = append(a.Recommendations, rec)
			if len(a.Recommendations) >= maxExpansions {
				break
			}
		}
	}
	return a
}
