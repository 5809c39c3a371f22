package experiments

import (
	"strings"

	"giant/internal/nlp"
	"giant/internal/ontology"
	"giant/internal/synth"
	"giant/internal/tagging"
)

// TaggingPrecision holds the §5.3 document-tagging precision results.
type TaggingPrecision struct {
	ConceptPrecision float64
	ConceptTagged    int
	ConceptDocs      int
	EventPrecision   float64
	EventTagged      int
	EventDocs        int
}

// DocTaggingPrecision tags the log's documents with the built taggers and
// scores the tags against the generative ground truth (the paper used human
// evaluation on 500 docs per category).
func DocTaggingPrecision(env *Env, maxDocs int) TaggingPrecision {
	ct := env.Sys.ConceptTagger()
	et := env.Sys.EventTagger()
	var res TaggingPrecision
	var cCorrect, cTotal, eCorrect, eTotal int
	for i := range env.Sys.Log.Docs {
		if maxDocs > 0 && i >= maxDocs {
			break
		}
		d := &env.Sys.Log.Docs[i]
		doc := docView(env, d)
		if d.ConceptID >= 0 {
			res.ConceptDocs++
			tags := ct.TagConcepts(doc)
			if len(tags) > 0 {
				res.ConceptTagged++
				if conceptTagCorrect(env, d.ConceptID, tags[0].Phrase) {
					cCorrect++
				}
				cTotal++
			}
		}
		if d.EventID >= 0 {
			res.EventDocs++
			tags := et.TagEvents(doc)
			if len(tags) > 0 {
				res.EventTagged++
				if eventTagCorrect(env, d.EventID, tags[0].Phrase) {
					eCorrect++
				}
				eTotal++
			}
		}
	}
	if cTotal > 0 {
		res.ConceptPrecision = float64(cCorrect) / float64(cTotal)
	}
	if eTotal > 0 {
		res.EventPrecision = float64(eCorrect) / float64(eTotal)
	}
	return res
}

func docView(env *Env, d *synth.Doc) *tagging.Document {
	ents := make([]string, 0, len(d.Entities))
	for _, id := range d.Entities {
		ents = append(ents, env.World.Entities[id].Name)
	}
	return &tagging.Document{ID: d.ID, Title: d.Title, Content: d.Content, Entities: ents}
}

// conceptTagCorrect accepts the gold concept phrase (modulo stop-word and
// token-order noise in the mined surface form), any CSD ancestor of it, or
// any other gold concept of the same document's entities.
func conceptTagCorrect(env *Env, goldConcept int, tag string) bool {
	gold := env.World.Concepts[goldConcept].Phrase
	if tag == gold || strings.HasSuffix(" "+gold, " "+tag) ||
		containsTokens(tag, gold) || containsTokens(gold, tag) {
		return true
	}
	// Accept sibling concepts that genuinely contain the doc's entities.
	for _, eid := range env.World.Concepts[goldConcept].Entities {
		for _, cid := range env.World.Entities[eid].Concepts {
			other := env.World.Concepts[cid].Phrase
			if other == tag || containsTokens(tag, other) {
				return true
			}
		}
	}
	return false
}

func eventTagCorrect(env *Env, goldEvent int, tag string) bool {
	gold := env.World.Events[goldEvent].Phrase
	if tag == gold {
		return true
	}
	gt := nlp.Tokenize(gold)
	tt := nlp.Tokenize(tag)
	l := tagging.LCSLen(gt, tt)
	return float64(l)/float64(len(gt)) >= 0.6 || float64(l)/float64(len(tt)) >= 0.8
}

// QueryUnderstanding runs query conceptualization over concept queries and
// reports how often the conveyed concept is recovered.
func QueryUnderstanding(env *Env, maxQueries int) (hit, total int) {
	u := env.Sys.Query()
	for _, c := range env.Sys.Snapshot().Nodes(ontology.Concept) {
		if maxQueries > 0 && total >= maxQueries {
			break
		}
		q := "best " + c.Phrase
		total++
		if u.Conceptualize(q) == c.Phrase {
			hit++
		}
	}
	return hit, total
}
