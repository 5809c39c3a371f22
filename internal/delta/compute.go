package delta

import (
	"sort"

	"giant/internal/core"
	"giant/internal/linking"
	"giant/internal/nlp"
	"giant/internal/ontology"
	"giant/internal/phrase"
)

// Source supplies the host system's context the delta linking stages need:
// document metadata for category and concept-entity linking, the lexicon
// for CSD, and the trained concept-entity classifier. Every callback may
// be nil — the corresponding linking stage is then skipped, which degrades
// coverage but never correctness. Compute calls them from one goroutine,
// in a fixed order.
type Source struct {
	// Lexicon drives noun-phrase checks in Common Suffix Discovery.
	Lexicon *nlp.Lexicon
	// DocCategory returns the category ID of a clicked document.
	DocCategory func(docID int) (int, bool)
	// CategoryPhrase resolves a category ID to its node phrase.
	CategoryPhrase func(cat int) (string, bool)
	// DocEntities returns the entity names mentioned in a document.
	DocEntities func(docID int) []string
	// DocContent returns a document's body text (concept-entity classifier
	// context).
	DocContent func(docID int) string
	// AcceptConceptEntity is the Fig. 4 classifier decision; nil accepts
	// every candidate pair.
	AcceptConceptEntity func(concept, entity, context string) bool
	// ResolveEntity maps a recognized entity token to the full entity
	// name.
	ResolveEntity func(token string) (string, bool)
}

// deltaBuilder accumulates one Delta, deduplicating edges per delta.
type deltaBuilder struct {
	d        *Delta
	edgeSeen map[string]bool
}

func newDeltaBuilder(day int, seeds []string) *deltaBuilder {
	return &deltaBuilder{
		d:        &Delta{Day: day, Seeds: append([]string(nil), seeds...)},
		edgeSeen: map[string]bool{},
	}
}

func (b *deltaBuilder) addEdge(e EdgeAdd) {
	k := refKey(e.SrcType, e.Src) + "\x01" + refKey(e.DstType, e.Dst) + "\x01" + e.Type.String()
	if !b.edgeSeen[k] {
		b.edgeSeen[k] = true
		b.d.Edges = append(b.d.Edges, e)
	}
}

// classified is the outcome of the Add/Touch classification pass.
type classified struct {
	nodes   []minedNode
	newSet  map[string]bool // refKey of nodes added this delta
	touched map[string]bool // refKey of touched existing nodes
}

// classify splits mined attentions into brand-new nodes and touches of
// existing ones (matching canonical phrases first, then aliases),
// appending Add and Touch entries to the builder.
func classify(cur *ontology.Snapshot, mined []core.Mined, b *deltaBuilder) *classified {
	cl := &classified{newSet: map[string]bool{}, touched: map[string]bool{}}
	for i := range mined {
		m := &mined[i]
		typ := ontology.Concept
		if m.IsEvent {
			typ = ontology.Event
		}
		if n, ok := findNode(cur, typ, m.Phrase); ok {
			if !cl.touched[refKey(typ, n.Phrase)] {
				cl.touched[refKey(typ, n.Phrase)] = true
				aliases := append([]string(nil), m.Aliases...)
				if n.Phrase != m.Phrase {
					aliases = append(aliases, m.Phrase)
				}
				b.d.Touch = append(b.d.Touch, NodeAdd{
					Type: typ, Phrase: n.Phrase, Aliases: aliases,
					Trigger: m.Trigger, Location: m.Location, Day: m.Day,
				})
			}
			cl.nodes = append(cl.nodes, minedNode{m, typ, n.Phrase, false})
			continue
		}
		if cl.newSet[refKey(typ, m.Phrase)] {
			continue
		}
		cl.newSet[refKey(typ, m.Phrase)] = true
		b.d.Add = append(b.d.Add, NodeAdd{
			Type: typ, Phrase: m.Phrase, Aliases: append([]string(nil), m.Aliases...),
			Trigger: m.Trigger, Location: m.Location, Day: max(m.Day, 0),
		})
		cl.nodes = append(cl.nodes, minedNode{m, typ, m.Phrase, true})
	}
	return cl
}

// categoryPhase recomputes attention-category isA edges: P(g|p) = n_p^g /
// n_p over the re-mined clusters' clicked docs (the same estimate
// linking.AttentionCategoryEdges uses in the batch build, but keyed by
// (type, phrase) — a same-phrase concept and event are distinct nodes and
// must not share click-category counts). New phrases gain edges;
// re-observed phrases whose membership probability shifted are
// re-weighted. Edges are committed in aggregation order.
func categoryPhase(cur *ontology.Snapshot, nodes []minedNode, pol Policy, src Source, b *deltaBuilder) {
	if src.DocCategory == nil || src.CategoryPhrase == nil {
		return
	}
	type catAgg struct {
		mn   minedNode
		cats map[int]int
	}
	aggs := map[string]*catAgg{}
	var order []*catAgg
	for _, mn := range nodes {
		k := refKey(mn.typ, mn.phrase)
		a := aggs[k]
		if a == nil {
			a = &catAgg{mn: mn, cats: map[int]int{}}
			aggs[k] = a
			order = append(order, a)
		}
		for _, docID := range mn.m.DocIDs {
			if c, ok := src.DocCategory(docID); ok {
				a.cats[c]++
			}
		}
	}
	for _, a := range order {
		total := 0
		catIDs := make([]int, 0, len(a.cats))
		for g, n := range a.cats {
			total += n
			catIDs = append(catIDs, g)
		}
		if total == 0 {
			continue
		}
		sort.Ints(catIDs)
		for _, g := range catIDs {
			prob := float64(a.cats[g]) / float64(total)
			if prob <= pol.CategoryDelta {
				continue
			}
			catPhrase, ok := src.CategoryPhrase(g)
			if !ok {
				continue
			}
			e := EdgeAdd{
				SrcType: ontology.Category, Src: catPhrase,
				DstType: a.mn.typ, Dst: a.mn.phrase,
				Type: ontology.IsA, Weight: prob,
			}
			if a.mn.isNew {
				b.addEdge(e)
				continue
			}
			if w, exists := findEdge(cur, e); !exists {
				b.addEdge(e)
			} else if w != prob {
				b.d.Reweight = append(b.d.Reweight, e)
			}
		}
	}
}

// inventories is the phrase inventory the derivation phase works over:
// existing attentions of the current snapshot unioned with the batch's
// new ones.
type inventories struct {
	allConcepts, allEvents     []string
	newConcepts                []string // batch's new concepts, mined order
	newConceptSet, newEventSet map[string]bool
	newSet                     map[string]bool // refKeys added this delta
}

// buildInventories derives the phrase inventories from a classification
// pass. newSet is shared (the derivation phase extends it with derived
// parents).
func buildInventories(cur *ontology.Snapshot, nodes []minedNode, newSet map[string]bool) *inventories {
	inv := &inventories{
		newConceptSet: map[string]bool{},
		newEventSet:   map[string]bool{},
		newSet:        newSet,
	}
	var newEvents []string
	for _, mn := range nodes {
		if !mn.isNew {
			continue
		}
		if mn.typ == ontology.Event {
			newEvents = append(newEvents, mn.phrase)
		} else {
			inv.newConcepts = append(inv.newConcepts, mn.phrase)
		}
	}
	inv.allConcepts = append(phrasesOfType(cur, ontology.Concept), inv.newConcepts...)
	inv.allEvents = append(phrasesOfType(cur, ontology.Event), newEvents...)
	for _, c := range inv.newConcepts {
		inv.newConceptSet[c] = true
	}
	for _, e := range newEvents {
		inv.newEventSet[e] = true
	}
	return inv
}

// derivePhase runs the inventory-wide linking: CSD-derived concept
// parents, suffix isA among concepts, containment isA among events and
// concept-topic involve edges, committed in that order (CSD extends the
// concept inventory that the suffix scan then reads).
func derivePhase(cur *ontology.Snapshot, inv *inventories, day int, pol Policy, src Source, b *deltaBuilder) {
	derived := phrase.CommonSuffixDiscovery(inv.allConcepts, pol.SuffixMinFreq, src.Lexicon)
	containPairs := linking.ContainmentIsAEdgesTouching(inv.allEvents, inv.newEventSet)
	// Concept-topic involve: new concepts against the existing topic
	// inventory (topic discovery itself — CPD — stays a batch-build
	// concern; incremental batches extend membership).
	var involvePairs []linking.PhrasePair
	if topics := phrasesOfType(cur, ontology.Topic); len(topics) > 0 && len(inv.newConcepts) > 0 {
		involvePairs = linking.ConceptTopicInvolveEdges(inv.newConcepts, topics)
	}

	// Attention derivation: CSD parents over the unioned concept
	// inventory. A derived parent that does not exist yet becomes an Add
	// with edges to every child; an existing parent only gains edges to
	// the batch's new children.
	for _, der := range derived {
		// Alias-aware resolution: a derived parent that only exists as an
		// alias must link through its canonical node, never duplicate it.
		parentPhrase := der.Phrase
		parentNode, parentExists := findNode(cur, ontology.Concept, der.Phrase)
		if parentExists {
			parentPhrase = parentNode.Phrase
		}
		parentKey := refKey(ontology.Concept, parentPhrase)
		if !parentExists && !inv.newSet[parentKey] {
			inv.newSet[parentKey] = true
			inv.newConceptSet[parentPhrase] = true
			inv.allConcepts = append(inv.allConcepts, parentPhrase)
			b.d.Add = append(b.d.Add, NodeAdd{Type: ontology.Concept, Phrase: parentPhrase, Day: day})
		}
		for _, child := range der.Children {
			if parentExists && !inv.newConceptSet[child] {
				continue // pre-existing parent-child pair
			}
			b.addEdge(EdgeAdd{
				SrcType: ontology.Concept, Src: parentPhrase,
				DstType: ontology.Concept, Dst: child,
				Type: ontology.IsA, Weight: 1,
			})
		}
	}

	// Suffix isA among concepts and containment isA among events: only
	// pairs involving a phrase from this batch are new, so only those are
	// asked for (a batch that adds no concept or event scans nothing).
	for _, pr := range linking.SuffixIsAEdgesTouching(inv.allConcepts, inv.newConceptSet) {
		b.addEdge(EdgeAdd{
			SrcType: ontology.Concept, Src: pr.Parent,
			DstType: ontology.Concept, Dst: pr.Child,
			Type: ontology.IsA, Weight: 1,
		})
	}
	for _, pr := range containPairs {
		b.addEdge(EdgeAdd{
			SrcType: ontology.Event, Src: pr.Parent,
			DstType: ontology.Event, Dst: pr.Child,
			Type: ontology.IsA, Weight: 1,
		})
	}
	for _, pr := range involvePairs {
		b.addEdge(EdgeAdd{
			SrcType: ontology.Topic, Src: pr.Parent,
			DstType: ontology.Concept, Dst: pr.Child,
			Type: ontology.Involve, Weight: 1,
		})
	}
}

// entityPhase links the batch's new attentions to the existing entity
// inventory: concept-entity isA via the Fig. 4 classifier, event-entity
// involve via key-element resolution. Edges are committed in mined order.
func entityPhase(cur *ontology.Snapshot, nodes []minedNode, src Source, b *deltaBuilder) {
	for _, mn := range nodes {
		if !mn.isNew {
			continue
		}
		if mn.typ == ontology.Event {
			if src.ResolveEntity == nil {
				continue
			}
			for _, tok := range mn.m.Entities {
				name, ok := src.ResolveEntity(tok)
				if !ok {
					continue
				}
				if _, exists := cur.Find(ontology.Entity, name); exists {
					b.addEdge(EdgeAdd{
						SrcType: ontology.Event, Src: mn.phrase,
						DstType: ontology.Entity, Dst: name,
						Type: ontology.Involve, Weight: 1,
					})
				}
			}
			continue
		}
		if src.DocEntities == nil {
			continue
		}
		seen := map[string]bool{}
		for _, docID := range mn.m.DocIDs {
			content := ""
			if src.DocContent != nil {
				content = src.DocContent(docID)
			}
			for _, name := range src.DocEntities(docID) {
				if seen[name] {
					continue
				}
				seen[name] = true
				if _, exists := cur.Find(ontology.Entity, name); !exists {
					continue
				}
				if src.AcceptConceptEntity != nil && !src.AcceptConceptEntity(mn.phrase, name, content) {
					continue
				}
				b.addEdge(EdgeAdd{
					SrcType: ontology.Concept, Src: mn.phrase,
					DstType: ontology.Entity, Dst: name,
					Type: ontology.IsA, Weight: 1,
				})
			}
		}
	}
}

// ttlPhase applies TTL retirement: attention types decay when not
// re-observed. Nodes touched or re-mined this batch are fresh by
// definition. Retirements are emitted in node-ID order.
func ttlPhase(cur *ontology.Snapshot, touched map[string]bool, day int, pol Policy, b *deltaBuilder) {
	for i := 0; i < cur.Len(); i++ {
		n := cur.At(ontology.NodeID(i))
		ttl := pol.ttlFor(n.Type)
		if ttl <= 0 {
			continue
		}
		last := n.FirstSeenDay
		if n.LastSeenDay > last {
			last = n.LastSeenDay
		}
		if n.Type == ontology.Event && n.Day > last {
			last = n.Day
		}
		// Expiry first: only an expired node pays for the touched probe's key.
		if day-last > ttl && !touched[refKey(n.Type, n.Phrase)] {
			b.d.Retire = append(b.d.Retire, Ref{Type: n.Type, Phrase: n.Phrase})
		}
	}
}

// Compute diffs freshly mined attentions against the current snapshot into
// an explicit Delta. mined is the output of core.Miner.MineSeeds over the
// affected seeds; day stamps the batch. The result is deterministic: a
// pure function of (cur, mined, seeds, day, pol, src).
func Compute(cur *ontology.Snapshot, mined []core.Mined, seeds []string, day int, pol Policy, src Source) *Delta {
	b := newDeltaBuilder(day, seeds)
	cl := classify(cur, mined, b)
	categoryPhase(cur, cl.nodes, pol, src, b)
	derivePhase(cur, buildInventories(cur, cl.nodes, cl.newSet), day, pol, src, b)
	entityPhase(cur, cl.nodes, src, b)
	ttlPhase(cur, cl.touched, day, pol, b)
	return b.d
}

// findNode resolves a (type, phrase) to the existing node, falling back to
// alias resolution.
func findNode(cur *ontology.Snapshot, t ontology.NodeType, p string) (ontology.Node, bool) {
	if n, ok := cur.Find(t, p); ok {
		return n, true
	}
	if id, ok := cur.LookupAlias(t, p); ok {
		return cur.Get(id)
	}
	return ontology.Node{}, false
}

// findEdge reports the weight of an existing edge matching e's endpoints
// and type.
func findEdge(cur *ontology.Snapshot, e EdgeAdd) (float64, bool) {
	src, ok := cur.Lookup(e.SrcType, e.Src)
	if !ok {
		return 0, false
	}
	dst, ok := cur.Lookup(e.DstType, e.Dst)
	if !ok {
		return 0, false
	}
	var w float64
	found := false
	cur.EachOut(src, func(edge *ontology.Edge, _ *ontology.Node) bool {
		if edge.Dst == dst && edge.Type == e.Type {
			w, found = edge.Weight, true
			return false
		}
		return true
	})
	return w, found
}

// phrasesOfType lists the canonical phrases of a node type in ID order.
func phrasesOfType(cur *ontology.Snapshot, t ontology.NodeType) []string {
	ids := cur.IDsOfType(t)
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, cur.At(id).Phrase)
	}
	return out
}

// minedNode pairs one mined attention with its resolved ontology identity.
type minedNode struct {
	m      *core.Mined
	typ    ontology.NodeType
	phrase string // canonical node phrase (existing node's for touches)
	isNew  bool
}
