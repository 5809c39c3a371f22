package giant

// Incremental ontology maintenance over the public facade: System.Ingest
// feeds a batch of new documents and click records through delta mining
// (internal/delta) and adopts the resulting generation, so an online tier
// can keep the served ontology fresh without ever re-running the full
// batch pipeline.

import (
	"encoding/json"
	"fmt"
	"slices"

	"giant/internal/core"
	"giant/internal/delta"
	"giant/internal/linking"
	"giant/internal/ontology"
	"giant/internal/synth"
	"giant/internal/wal"
)

// Ingest applies one incremental update batch: it extends the click graph
// with the batch's documents and clicks, re-runs Algorithm-1 mining over
// the affected cluster neighbourhood only, diffs the result against the
// current ontology into an explicit delta (adds, re-weights, touches,
// TTL retirements per Config.Update), and applies it. The system's
// working ontology advances to the new generation and the applied
// snapshot is returned, ready for atomic hot-swap into a serving tier.
//
// Batch documents may be brand new (ID == -1 or the next free ID) or
// reference documents the system already knows (same ID and title —
// useful when a click batch lands on an existing corpus). Clicks
// reference known documents by ID, or this batch's documents positionally
// with negative IDs: -1 is the batch's first doc, -2 its second, and so
// on — so a self-contained batch never needs to guess assigned IDs.
//
// Ingest is safe for concurrent callers (they serialize) but must not
// race with direct mutation of the System's fields.
func (sys *System) Ingest(batch delta.Batch) (*ontology.Snapshot, *delta.Delta, error) {
	sys.ingestMu.Lock()
	defer sys.ingestMu.Unlock()
	return sys.ingestLocked(sys.Ontology.Snapshot(), batch, nil)
}

// IngestSharded is Ingest for a sharded deployment (Cfg.Shards > 1): the
// same batch goes through the same computation, and the one resulting
// delta is then projected — delta.TouchedShards names the shards whose
// ontology.HomeShard projection it can change, and only those are
// re-derived. It returns the advanced sharded snapshot, the delta and the
// touched-shard flags (the serving tier bumps only the touched shards'
// generations). The union is byte-identical to what Ingest produces for the
// same batch sequence, node IDs included.
//
// share, when not nil, is the batch's slot in the fleet's mined outcomes
// beside the delta log: the batch's mined attentions come from the
// replica that mined it first, or are mined here and published for the
// others. Either way every output byte is what mining the batch here
// would give.
func (sys *System) IngestSharded(batch delta.Batch, share *wal.Outcome) (*ontology.ShardedSnapshot, *delta.Delta, []bool, error) {
	sys.ingestMu.Lock()
	defer sys.ingestMu.Unlock()

	cur, err := sys.shardedLocked()
	if err != nil {
		return nil, nil, nil, err
	}
	union, d, err := sys.ingestLocked(cur.Union(), batch, share)
	if err != nil {
		return nil, nil, nil, err
	}
	touched := delta.TouchedShards(cur.Union(), d, cur.NumShards())
	next, err := cur.Advance(union, touched)
	if err != nil {
		return nil, nil, nil, err
	}
	sys.sharded = next
	sys.shardedFrom = sys.Ontology
	return next, d, touched, nil
}

// minedOutcome is the JSON body of a shared mined outcome: the mined
// attentions of one batch, with the guards a replica checks before it
// applies them instead of mining — the seed baseline (as in
// checkpointState) and the seeds they were mined from.
type minedOutcome struct {
	SeedDocs int          `json:"seed_docs"`
	SeedRecs int          `json:"seed_recs"`
	Seeds    []string     `json:"seeds"`
	Mined    []core.Mined `json:"mined"`
}

// ingestLocked is the one compute path of an update batch, shared by Ingest
// and IngestSharded: extend the click graph, mine the affected seeds (or
// take what another replica mined from them, see minedLocked), diff against
// cur (the snapshot of the system's current ontology), apply, adopt. Caller
// holds ingestMu.
func (sys *System) ingestLocked(cur *ontology.Snapshot, batch delta.Batch, share *wal.Outcome) (*ontology.Snapshot, *delta.Delta, error) {
	seeds, day, err := sys.applyBatchLocked(batch)
	if err != nil {
		return nil, nil, err
	}
	mined := sys.minedLocked(seeds, share)
	d := delta.Compute(cur, mined, seeds, day, sys.updatePolicy(), sys.deltaSource())
	next, err := delta.Apply(cur, d)
	if err != nil {
		return nil, nil, err
	}
	sys.adoptGenerationLocked(next, mined, d.Retire)
	// The cached sharded projection (if any) no longer matches the union;
	// IngestSharded installs the advanced one, otherwise the next
	// ShardedSnapshot call re-derives it.
	sys.sharded = nil
	return next, d, nil
}

// minedLocked returns the mined attentions of seeds. A shared outcome is
// used only when it was mined on this system's seed baseline from exactly
// these seeds; the share has already matched the log position and payload.
// Anything else is mined here, and published when this caller holds the
// claim. Caller holds ingestMu.
func (sys *System) minedLocked(seeds []string, share *wal.Outcome) []core.Mined {
	if share == nil {
		return sys.Miner.MineSeeds(sys.Click, seeds)
	}
	body, claimed := share.Take()
	if body != nil {
		var out minedOutcome
		if json.Unmarshal(body, &out) == nil && out.SeedDocs == sys.seedDocs && out.SeedRecs == sys.seedRecs && slices.Equal(out.Seeds, seeds) {
			return out.Mined
		}
	}
	mined := sys.Miner.MineSeeds(sys.Click, seeds)
	if claimed {
		// Marshalling strings, ints and bools cannot fail, and a failed
		// publish only costs the other replicas their own mining.
		body, _ := json.Marshal(&minedOutcome{SeedDocs: sys.seedDocs, SeedRecs: sys.seedRecs, Seeds: seeds, Mined: mined})
		_ = share.Publish(body)
	}
	return mined
}

// applyBatchLocked validates one update batch and, only when it is valid
// as a whole, extends the corpus, the click stream and the click graph,
// returning the affected seed queries to re-mine and the batch day.
// Caller holds ingestMu.
func (sys *System) applyBatchLocked(batch delta.Batch) ([]string, int, error) {
	day := batch.EffectiveDay()

	// Validation pass: plan every doc and resolve every click BEFORE any
	// shared state mutates, so an invalid batch is rejected whole — a
	// validation error never leaves the click graph or the corpus
	// half-updated and a corrected retry cannot double-count. (An
	// internal delta-pipeline failure further down is a bug, not a batch
	// problem; it is surfaced without ErrInvalidBatch so callers do not
	// blind-retry it.)
	nextID := len(sys.Log.Docs)
	batchDocIDs := make([]int, 0, len(batch.Docs)) // batch position -> final doc ID
	isNewDoc := make([]bool, 0, len(batch.Docs))
	for i := range batch.Docs {
		bd := &batch.Docs[i]
		switch {
		case bd.ID >= 0 && bd.ID < len(sys.Log.Docs):
			if sys.Log.Docs[bd.ID].Title != bd.Title {
				return nil, 0, fmt.Errorf("giant: ingest: doc ID %d collides with existing %q: %w", bd.ID, sys.Log.Docs[bd.ID].Title, delta.ErrInvalidBatch)
			}
			batchDocIDs = append(batchDocIDs, bd.ID)
			isNewDoc = append(isNewDoc, false)
		case bd.ID < 0 || bd.ID == nextID:
			batchDocIDs = append(batchDocIDs, nextID)
			isNewDoc = append(isNewDoc, true)
			nextID++
		default:
			return nil, 0, fmt.Errorf("giant: ingest: doc ID %d is not contiguous (next free ID is %d; use -1 to auto-assign): %w", bd.ID, nextID, delta.ErrInvalidBatch)
		}
	}
	clicks := append([]delta.Click(nil), batch.Clicks...)
	for i := range clicks {
		c := &clicks[i]
		if c.DocID < 0 {
			idx := -c.DocID - 1
			if idx >= len(batchDocIDs) {
				return nil, 0, fmt.Errorf("giant: ingest: click references batch doc #%d but the batch has %d docs: %w", idx, len(batchDocIDs), delta.ErrInvalidBatch)
			}
			c.DocID = batchDocIDs[idx]
		}
		if c.DocID >= nextID {
			return nil, 0, fmt.Errorf("giant: ingest: click references unknown doc %d: %w", c.DocID, delta.ErrInvalidBatch)
		}
		if c.Day == 0 {
			c.Day = day
		}
	}

	// Apply pass: adopt the new documents, then extend the click graph and
	// the log's click stream.
	for i := range batch.Docs {
		if !isNewDoc[i] {
			continue
		}
		bd := &batch.Docs[i]
		ents := make([]int, 0, len(bd.Entities))
		for _, name := range bd.Entities {
			if e, ok := sys.World.EntityByName(name); ok {
				ents = append(ents, e.ID)
			}
		}
		sys.Log.Docs = append(sys.Log.Docs, synth.Doc{
			ID: batchDocIDs[i], Title: bd.Title, Content: bd.Content, Category: bd.Category,
			Entities: ents, Day: bd.Day, ConceptID: -1, EventID: -1,
		})
	}
	queries := make([]string, 0, len(clicks))
	seenQ := map[string]bool{}
	touchedDocs := map[int]bool{}
	for _, c := range clicks {
		sys.Click.Add(c.Query, c.DocID, sys.Log.Docs[c.DocID].Title, c.Clicks, c.Day)
		sys.Log.Records = append(sys.Log.Records, synth.Record{Query: c.Query, DocID: c.DocID, Clicks: c.Clicks, Day: c.Day})
		if !seenQ[c.Query] {
			seenQ[c.Query] = true
			queries = append(queries, c.Query)
		}
		touchedDocs[c.DocID] = true
	}
	for _, id := range batchDocIDs {
		touchedDocs[id] = true
	}
	docIDs := make([]int, 0, len(touchedDocs))
	for id := range touchedDocs {
		docIDs = append(docIDs, id)
	}

	// The affected cluster neighbourhood: only these seeds are re-mined.
	return sys.Click.AffectedQueries(queries, docIDs, sys.Miner.Walk.Steps), day, nil
}

// adoptGenerationLocked advances the system's working ontology to the
// applied snapshot (an O(1) adoption: the snapshot itself becomes the
// system's current one) and refreshes the §4 application builders'
// bookkeeping (taggers, story trees): concept contexts, newly mined
// attentions, and retired records. The concept-context map is replaced
// copy-on-write — maps handed out by ConceptContext (e.g. to request
// handlers in a serving tier) are never mutated. Caller holds ingestMu.
func (sys *System) adoptGenerationLocked(next *ontology.Snapshot, mined []core.Mined, retires []delta.Ref) {
	sys.Ontology = ontology.FromSnapshot(next)

	ctx := make(map[string][]string, len(sys.conceptContext)+len(mined))
	for k, v := range sys.conceptContext {
		ctx[k] = v
	}
	known := sys.knownMinedLocked()
	for i := range mined {
		m := &mined[i]
		// Record under the CANONICAL node phrase: a mined phrase that
		// alias-resolved to an existing node must refresh that node's
		// records, not create dead alias-keyed entries no tagger reads.
		typ := ontology.Concept
		if m.IsEvent {
			typ = ontology.Event
		}
		canonical := m.Phrase
		if id, ok := next.Lookup(typ, m.Phrase); ok {
			canonical = next.At(id).Phrase
		} else if id, ok := next.LookupAlias(typ, m.Phrase); ok {
			canonical = next.At(id).Phrase
		} else {
			continue // not adopted into this generation
		}
		if !m.IsEvent {
			ctx[canonical] = sys.Click.TopTitlesFor(m.Seed, 5)
		}
		if !known[canonical] {
			known[canonical] = true
			mc := *m
			mc.Phrase = canonical
			sys.Mined = append(sys.Mined, mc)
		}
	}
	if len(retires) > 0 {
		// Retirement is typed: an event aging out must not purge a
		// same-phrase concept's records (they are distinct nodes).
		retiredEvent, retiredConcept := map[string]bool{}, map[string]bool{}
		for _, r := range retires {
			switch r.Type {
			case ontology.Event:
				retiredEvent[r.Phrase] = true
			case ontology.Concept:
				retiredConcept[r.Phrase] = true
			}
		}
		// The filter pass walks every record anyway, so the known set is
		// rebuilt alongside it (a phrase stays known while a same-phrase
		// record of the other type survives).
		kept := sys.Mined[:0]
		known = make(map[string]bool, len(sys.Mined))
		for i := range sys.Mined {
			m := &sys.Mined[i]
			if (m.IsEvent && retiredEvent[m.Phrase]) || (!m.IsEvent && retiredConcept[m.Phrase]) {
				continue
			}
			kept = append(kept, *m)
			known[m.Phrase] = true
		}
		sys.Mined = kept
		sys.knownMined = known
		for p := range retiredConcept {
			delete(ctx, p)
		}
	}
	sys.conceptContext = ctx
}

// knownMinedLocked returns the set of phrases sys.Mined holds a record for,
// which adoption keeps current as it appends and retires records. It is
// (re)built from sys.Mined when absent — first ingest after a build — or
// when sys.Mined was replaced wholesale behind its back (RestoreCheckpoint
// drops it). Caller holds ingestMu.
func (sys *System) knownMinedLocked() map[string]bool {
	if sys.knownMined == nil {
		sys.knownMined = make(map[string]bool, len(sys.Mined))
		for i := range sys.Mined {
			sys.knownMined[sys.Mined[i].Phrase] = true
		}
	}
	return sys.knownMined
}

// updatePolicy resolves the effective incremental policy, defaulting the
// linking thresholds to the batch build's configuration.
func (sys *System) updatePolicy() delta.Policy {
	pol := sys.Cfg.Update
	if pol.CategoryDelta == 0 {
		pol.CategoryDelta = sys.Cfg.CategoryDelta
	}
	if pol.SuffixMinFreq == 0 {
		pol.SuffixMinFreq = sys.Cfg.SuffixMinFreq
	}
	return pol
}

// deltaSource adapts the system's world, corpus and trained classifiers to
// the delta package's linking callbacks.
func (sys *System) deltaSource() delta.Source {
	w := sys.World
	docOK := func(docID int) bool { return docID >= 0 && docID < len(sys.Log.Docs) }
	return delta.Source{
		Lexicon:     w.Lexicon,
		Parallelism: sys.Cfg.parallelism(),
		DocCategory: func(docID int) (int, bool) {
			if !docOK(docID) {
				return 0, false
			}
			return sys.Log.Docs[docID].Category, true
		},
		CategoryPhrase: func(cat int) (string, bool) {
			if cat < 0 || cat >= len(w.Categories) {
				return "", false
			}
			return w.Categories[cat].Name, true
		},
		DocEntities: func(docID int) []string {
			if !docOK(docID) {
				return nil
			}
			ids := sys.Log.Docs[docID].Entities
			out := make([]string, 0, len(ids))
			for _, id := range ids {
				if id >= 0 && id < len(w.Entities) {
					out = append(out, w.Entities[id].Name)
				}
			}
			return out
		},
		DocContent: func(docID int) string {
			if !docOK(docID) {
				return ""
			}
			return sys.Log.Docs[docID].Content
		},
		AcceptConceptEntity: func(concept, entity, context string) bool {
			if sys.CEClf == nil {
				return true
			}
			ex := linking.CEExample{Concept: concept, Entity: entity, Context: context, CoClicks: 2}
			return sys.CEClf.Predict(&ex)
		},
		ResolveEntity: func(tok string) (string, bool) {
			return entityNameOfToken(w, tok), true
		},
	}
}
