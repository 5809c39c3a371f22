package queryund

import (
	"sort"
	"strings"

	"giant/internal/nlp"
	"giant/internal/ontology"
)

// ReferencePartial is Understander.Partial as a full scan: every home
// concept and entity phrase is tested for containment in the query. It is
// the oracle for the posting-driven Partial, exported to this package's
// external tests.
func ReferencePartial(u *Understander, scope ontology.Scope, query string) *Partial {
	qnorm := strings.Join(nlp.Tokenize(query), " ")
	padded := " " + qnorm + " "
	contains := func(norm string) bool { return norm != "" && strings.Contains(padded, " "+norm+" ") }
	p := &Partial{}

	bestPhrase, bestLen := "", 0
	var bestID ontology.NodeID
	for _, c := range scope.Snap.PhraseTokens(ontology.Concept) {
		if scope.Home(c.ID) && len(c.Norm) > bestLen && contains(c.Norm) {
			bestPhrase, bestLen, bestID = c.Phrase, len(c.Norm), scope.UID(c.ID)
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

	if ent, local, ok := scope.FindHome(ontology.Entity, qnorm); ok {
		p.EntityExact = &EntityCand{ID: ent.ID, Phrase: ent.Phrase, Recs: u.recommendations(scope, local, ent.Phrase)}
	}
	for _, e := range scope.Snap.PhraseTokens(ontology.Entity) {
		if scope.Home(e.ID) && contains(e.Norm) {
			cand := &EntityCand{ID: scope.UID(e.ID), Phrase: e.Phrase}
			if _, local, ok := scope.FindHome(ontology.Entity, e.Phrase); ok {
				cand.Recs = u.recommendations(scope, local, e.Phrase)
			}
			p.EntityContained = cand
			break
		}
	}
	return p
}
