package storytree

import (
	"sort"

	"giant/internal/ontology"
)

// EventsFromView reconstructs story-tree event nodes from the ontology
// itself: every Event node contributes its phrase, trigger, location and
// day, with its entity set read off the Involve edges §3.2 linked. This is
// the serving-time path — an online tier holding only a built (or
// re-loaded) ontology can form story trees without the mining byproducts
// the offline pipeline keeps in memory.
func EventsFromView(s *ontology.Snapshot) []*EventNode {
	return FragmentsFromScope(ontology.UnionScope(s))
}

// FragmentsFromScope extracts the scope's home events as story-tree
// candidates in ascending union-ID order (see ontology.Scope). A home
// event's Involve edges are all present in its scope, and entity endpoints
// carry exact phrases even as ghosts, so each fragment is complete; merging
// per-scope fragments with MergeFragments reproduces EventsFromView over
// the union exactly.
func FragmentsFromScope(scope ontology.Scope) []*EventNode {
	var out []*EventNode
	for _, n := range scope.HomeNodes(ontology.Event) {
		node := &EventNode{
			ID:       n.ID,
			Phrase:   n.Phrase,
			Trigger:  n.Trigger,
			Location: n.Location,
			Day:      n.Day,
		}
		if _, local, ok := scope.FindHome(ontology.Event, n.Phrase); ok {
			for _, ch := range scope.Snap.Children(local, ontology.Involve) {
				if ch.Type == ontology.Entity {
					node.Entities = append(node.Entities, ch.Phrase)
				}
			}
		}
		out = append(out, node)
	}
	return out
}

// MergeFragments combines per-scope fragment lists into the union candidate
// list, ordered by ascending union ID — the order EventsFromView produces,
// which story-tree formation (and therefore branch composition) depends on.
func MergeFragments(parts ...[]*EventNode) []*EventNode {
	var all []*EventNode
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// FormFromEvents builds the story tree seeded at seedPhrase from an
// already-materialized candidate list (EventsFromView), using enc for
// phrase/trigger similarity, and returns false when seedPhrase is not one
// of the candidates. A server that holds one immutable snapshot extracts
// the events once and forms trees for many seeds without re-walking the
// ontology.
// Formation only reads the candidates, so a shared list may serve
// concurrent calls.
func FormFromEvents(candidates []*EventNode, seedPhrase string, enc Encoder, opt Options) (*Tree, bool) {
	var seed *EventNode
	for _, c := range candidates {
		if c.Phrase == seedPhrase {
			seed = c
			break
		}
	}
	if seed == nil {
		return nil, false
	}
	return Form(seed, candidates, enc, opt), true
}
