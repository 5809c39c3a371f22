package giant

// Tests for the incremental-update path: System.Ingest over day-sliced
// batches must reproduce a full batch rebuild over the union corpus for
// every cluster neighbourhood the batches did not touch, deltas must be
// race-clean while earlier generations keep serving readers, and TTL decay
// must retire stale events.

import (
	"reflect"
	"sync"
	"testing"

	"giant/internal/delta"
	"giant/internal/ontology"
)

// TestMineSeedsMatchesMine pins the delta miner's contract: restricted to
// the full seed set, MineSeeds is byte-identical to the batch Mine pass.
func TestMineSeedsMatchesMine(t *testing.T) {
	sys := builtSystem(t)
	all := sys.Miner.Mine(sys.Click)
	seeded := sys.Miner.MineSeeds(sys.Click, sys.Click.Queries())
	if !reflect.DeepEqual(all, seeded) {
		t.Fatalf("MineSeeds over every seed diverges from Mine: %d vs %d attentions", len(all), len(seeded))
	}
}

// incrementalCase replays the full corpus in two phases: a batch build
// over days <= splitDay, then one Ingest per remaining day. It returns the
// incremental system plus the union of re-mined seeds across batches.
func incrementalCase(t *testing.T, cfg Config, splitDay, maxDay int) (*System, map[string]bool, []*ontology.Snapshot) {
	t.Helper()
	full := fullSystem(t, cfg)
	inc, err := BuildUpToDay(cfg, splitDay)
	if err != nil {
		t.Fatalf("BuildUpToDay: %v", err)
	}
	affected := map[string]bool{}
	var gens []*ontology.Snapshot
	for day := splitDay + 1; day <= maxDay; day++ {
		batch := delta.Batch{Day: day}
		for _, r := range full.Log.Records {
			if r.Day == day {
				batch.Clicks = append(batch.Clicks, delta.Click{Query: r.Query, DocID: r.DocID, Clicks: r.Clicks, Day: r.Day})
			}
		}
		snap, d, err := inc.Ingest(batch)
		if err != nil {
			t.Fatalf("Ingest day %d: %v", day, err)
		}
		for _, s := range d.Seeds {
			affected[s] = true
		}
		gens = append(gens, snap)
	}
	return inc, affected, gens
}

var (
	fullOnce sync.Once
	fullSys  *System
	fullErr  error
)

// fullSystem builds the reference full-rebuild system once (it is the
// expensive part of these tests).
func fullSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	fullOnce.Do(func() { fullSys, fullErr = Build(cfg) })
	if fullErr != nil {
		t.Fatalf("Build: %v", fullErr)
	}
	return fullSys
}

func equivalenceConfig() Config {
	cfg := TinyConfig()
	// No TTL decay: equivalence is judged against a rebuild that never
	// retires anything.
	cfg.Update = delta.Policy{EventTTL: 0, ConceptTTL: 0, TopicTTL: 0}
	return cfg
}

func maxRecordDay(sys *System) int {
	max := 0
	for _, r := range sys.Log.Records {
		if r.Day > max {
			max = r.Day
		}
	}
	return max
}

type nodeKey struct {
	Type   ontology.NodeType
	Phrase string
}

func nodeSet(o *ontology.Snapshot) map[nodeKey]ontology.Node {
	out := map[nodeKey]ontology.Node{}
	for _, n := range o.Nodes() {
		out[nodeKey{n.Type, n.Phrase}] = n
	}
	return out
}

type edgeKey struct {
	Src, Dst nodeKey
	Type     ontology.EdgeType
}

func edgeSet(o *ontology.Snapshot) map[edgeKey]float64 {
	out := map[edgeKey]float64{}
	for _, e := range o.Edges() {
		src, _ := o.Get(e.Src)
		dst, _ := o.Get(e.Dst)
		out[edgeKey{nodeKey{src.Type, src.Phrase}, nodeKey{dst.Type, dst.Phrase}, e.Type}] = e.Weight
	}
	return out
}

// changedRegion computes the phrase set whose mining or linking could
// legitimately differ between the incremental and full paths: attentions
// mined from an affected seed in either system, every alias (global
// normalization may merge across batch boundaries the incremental path
// cannot see), and — transitively — derived parents and topics whose
// child sets include a changed phrase.
func changedRegion(full, inc *System, affected map[string]bool) map[string]bool {
	changed := map[string]bool{}
	mark := func(sys *System) {
		for i := range sys.Mined {
			m := &sys.Mined[i]
			if affected[m.Seed] {
				changed[m.Phrase] = true
				for _, a := range m.Aliases {
					changed[a] = true
				}
			}
		}
	}
	mark(full)
	mark(inc)
	for _, sys := range []*System{full, inc} {
		for _, n := range sys.Snapshot().Nodes() {
			if len(n.Aliases) > 0 {
				changed[n.Phrase] = true
				for _, a := range n.Aliases {
					changed[a] = true
				}
			}
		}
	}
	// Propagate to structural parents (CSD-derived concepts, CPD topics)
	// until a fixpoint: their existence and child sets depend on the
	// changed phrases.
	for _, sys := range []*System{full, inc} {
		for {
			grew := false
			snap := sys.Snapshot()
			for _, e := range snap.Edges() {
				src, _ := snap.Get(e.Src)
				dst, _ := snap.Get(e.Dst)
				if changed[dst.Phrase] && !changed[src.Phrase] &&
					(src.Type == ontology.Concept || src.Type == ontology.Topic) {
					changed[src.Phrase] = true
					grew = true
				}
			}
			if !grew {
				break
			}
		}
	}
	return changed
}

func TestIncrementalMatchesFullRebuild(t *testing.T) {
	cfg := equivalenceConfig()
	full := fullSystem(t, cfg)
	maxDay := maxRecordDay(full)
	if maxDay < 2 {
		t.Fatalf("log too shallow for a split: max day %d", maxDay)
	}
	splitDay := maxDay / 2
	inc, affected, _ := incrementalCase(t, cfg, splitDay, maxDay)

	changed := changedRegion(full, inc, affected)
	fullNodes, incNodes := nodeSet(full.Snapshot()), nodeSet(inc.Snapshot())

	// Unchanged-region node equivalence, both directions.
	checked := 0
	for k := range fullNodes {
		if changed[k.Phrase] {
			continue
		}
		if _, ok := incNodes[k]; !ok {
			t.Errorf("full rebuild has unchanged-region node %v %q; incremental lost it", k.Type, k.Phrase)
		}
		checked++
	}
	for k := range incNodes {
		if changed[k.Phrase] {
			continue
		}
		if _, ok := fullNodes[k]; !ok {
			t.Errorf("incremental invented unchanged-region node %v %q", k.Type, k.Phrase)
		}
	}
	if checked == 0 {
		t.Fatal("changed region swallowed every node; equivalence test is vacuous")
	}

	// Unchanged-region edge equivalence (both endpoints unchanged),
	// including weights — re-weighting must converge to the batch value.
	fullEdges, incEdges := edgeSet(full.Snapshot()), edgeSet(inc.Snapshot())
	checkedEdges := 0
	for k, w := range fullEdges {
		if changed[k.Src.Phrase] || changed[k.Dst.Phrase] {
			continue
		}
		iw, ok := incEdges[k]
		if !ok {
			t.Errorf("incremental lost unchanged-region edge %v", k)
			continue
		}
		if iw != w {
			t.Errorf("edge %v weight: full %v, incremental %v", k, w, iw)
		}
		checkedEdges++
	}
	for k := range incEdges {
		if changed[k.Src.Phrase] || changed[k.Dst.Phrase] {
			continue
		}
		if _, ok := fullEdges[k]; !ok {
			t.Errorf("incremental invented unchanged-region edge %v", k)
		}
	}
	if checkedEdges == 0 {
		t.Fatal("no unchanged-region edges compared; equivalence test is vacuous")
	}
	t.Logf("equivalence: %d unchanged nodes, %d unchanged edges compared (%d phrases in changed region)",
		checked, checkedEdges, len(changed))

	// The incremental result stays a DAG and keeps serving invariants.
	if inc.Snapshot().HasCycleIsA() {
		t.Fatal("incremental ontology has an isA cycle")
	}
}

// TestConceptContextIsStableAcrossIngest pins the copy-on-write contract
// a serving tier relies on: the map ConceptContext hands out must never
// be mutated by later Ingest calls (request handlers read it without
// locks).
func TestConceptContextIsStableAcrossIngest(t *testing.T) {
	cfg := equivalenceConfig()
	full := fullSystem(t, cfg)
	maxDay := maxRecordDay(full)
	inc, err := BuildUpToDay(cfg, maxDay/2)
	if err != nil {
		t.Fatalf("BuildUpToDay: %v", err)
	}
	served := inc.ConceptContext()
	before := len(served)
	batch := delta.Batch{Day: maxDay}
	for _, r := range full.Log.Records {
		if r.Day > maxDay/2 {
			batch.Clicks = append(batch.Clicks, delta.Click{Query: r.Query, DocID: r.DocID, Clicks: r.Clicks, Day: r.Day})
		}
	}
	if _, _, err := inc.Ingest(batch); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if len(served) != before {
		t.Fatalf("handed-out concept context mutated by Ingest: %d -> %d entries", before, len(served))
	}
	if len(inc.ConceptContext()) <= before {
		t.Fatalf("fresh ConceptContext should have grown past %d entries", before)
	}
}

// TestIngestRejectsBadBatchAtomically pins the all-or-nothing contract: a
// batch with an invalid click must leave the click graph, corpus and
// ontology byte-identical so a corrected retry cannot double-count.
func TestIngestRejectsBadBatchAtomically(t *testing.T) {
	cfg := equivalenceConfig()
	sys, err := BuildUpToDay(cfg, 0)
	if err != nil {
		t.Fatalf("BuildUpToDay: %v", err)
	}
	docsBefore := len(sys.Log.Docs)
	recordsBefore := len(sys.Log.Records)
	queriesBefore := sys.Click.NumQueries()
	nodesBefore := sys.Snapshot().NodeCount()
	bad := delta.Batch{Day: 5,
		Docs:   []delta.Doc{{ID: -1, Title: "new doc", Category: 0, Day: 5}},
		Clicks: []delta.Click{{Query: "fine query", DocID: -1, Clicks: 1}, {Query: "broken", DocID: 999999, Clicks: 1}},
	}
	if _, _, err := sys.Ingest(bad); err == nil {
		t.Fatal("bad batch accepted")
	}
	if len(sys.Log.Docs) != docsBefore || len(sys.Log.Records) != recordsBefore ||
		sys.Click.NumQueries() != queriesBefore || sys.Snapshot().NodeCount() != nodesBefore {
		t.Fatalf("rejected batch left state half-applied: docs %d->%d, records %d->%d, queries %d->%d, nodes %d->%d",
			docsBefore, len(sys.Log.Docs), recordsBefore, len(sys.Log.Records),
			queriesBefore, sys.Click.NumQueries(), nodesBefore, sys.Snapshot().NodeCount())
	}
}

// TestIngestConcurrentReaders hammers earlier generations with readers
// while later batches are ingested: snapshots are immutable, so this must
// be race-clean (run under -race) and every lookup must keep answering.
func TestIngestConcurrentReaders(t *testing.T) {
	cfg := equivalenceConfig()
	full := fullSystem(t, cfg)
	maxDay := maxRecordDay(full)
	splitDay := maxDay / 2

	inc, err := BuildUpToDay(cfg, splitDay)
	if err != nil {
		t.Fatalf("BuildUpToDay: %v", err)
	}
	first := inc.Snapshot()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range first.IDsOfType(ontology.Concept) {
					n := first.At(id)
					if _, ok := first.Find(n.Type, n.Phrase); !ok {
						t.Error("snapshot lookup failed mid-ingest")
						return
					}
				}
			}
		}()
	}
	for day := splitDay + 1; day <= maxDay; day++ {
		batch := delta.Batch{Day: day}
		for _, r := range full.Log.Records {
			if r.Day == day {
				batch.Clicks = append(batch.Clicks, delta.Click{Query: r.Query, DocID: r.DocID, Clicks: r.Clicks, Day: r.Day})
			}
		}
		if _, _, err := inc.Ingest(batch); err != nil {
			t.Fatalf("Ingest day %d: %v", day, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestIngestTTLRetirement checks per-type decay: an event not re-observed
// within its TTL retires (with its incident edges) while long-lived types
// survive.
func TestIngestTTLRetirement(t *testing.T) {
	cfg := equivalenceConfig()
	cfg.Update = delta.Policy{EventTTL: 2}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	events := sys.Snapshot().NodeCount(ontology.Event)
	concepts := sys.Snapshot().NodeCount(ontology.Concept)
	if events == 0 {
		t.Skip("no events mined at tiny scale")
	}
	// An empty far-future batch: no new clicks, so every event's last-seen
	// day is far behind the batch day.
	farFuture := maxRecordDay(sys) + 100
	snap, d, err := sys.Ingest(delta.Batch{Day: farFuture})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if len(d.Retire) == 0 {
		t.Fatal("no retirements despite expired TTLs")
	}
	if got := snap.NodeCount(ontology.Event); got != 0 {
		t.Fatalf("expected all %d events retired, %d remain", events, got)
	}
	if got := snap.NodeCount(ontology.Concept); got != concepts {
		t.Fatalf("concepts must not decay (ConceptTTL=0): had %d, now %d", concepts, got)
	}
	// Retired nodes take their edges with them.
	for _, e := range snap.Edges() {
		src, _ := snap.Get(e.Src)
		dst, _ := snap.Get(e.Dst)
		if src.Type == ontology.Event || dst.Type == ontology.Event {
			t.Fatalf("edge to retired event survived: %v -> %v", src.Phrase, dst.Phrase)
		}
	}
}
