package serve

import (
	"encoding/json"
	"net/http"
	"strings"

	"giant/internal/nlp"
	"giant/internal/ontology"
	"giant/internal/queryund"
	"giant/internal/storytree"
	"giant/internal/tagging"
)

// This file is the application-endpoint core shared by every serving mode:
// /v1/tag, /v1/query/rewrite and /v1/story all decompose into per-scope
// partials (tagging/queryund/storytree) plus a deterministic merge. A process
// that holds the union answers from its union taggers — internally the merge
// of one whole-view partial — and the partial → merge fold runs only across
// processes, in the router (router_app.go), over the raw partials every
// server exposes over HTTP (?partial=...):
//
//	GET  /v1/tag?partial=stats        home concepts + representations
//	GET/POST /v1/tag?partial=match    per-entity parent + event candidates
//	GET  /v1/query/rewrite?partial=1&q=  rewrite candidates for a query
//	GET  /v1/story?partial=fragments  home events as story-tree fragments
//
// Partial bodies carry the serving generation so merge sites can key caches
// by it and detect republishes that race an index fetch.

// tagStatsBody is the wire form of a shard's concept stats partial.
type tagStatsBody struct {
	Generation uint64               `json:"generation"`
	Concepts   []tagging.ConceptRef `json:"concepts"`
}

// tagMatchBody is the wire form of a shard's per-document tag partial.
type tagMatchBody struct {
	Generation uint64                 `json:"generation"`
	Entities   [][]tagging.ConceptRef `json:"entities"`
	Events     []tagging.EventCand    `json:"events"`
}

// rewritePartialBody is the wire form of a shard's query-rewrite partial.
type rewritePartialBody struct {
	Generation uint64            `json:"generation"`
	Partial    *queryund.Partial `json:"partial"`
}

// storyFragsBody is the wire form of a shard's story-fragment partial.
type storyFragsBody struct {
	Generation uint64                 `json:"generation"`
	Events     []*storytree.EventNode `json:"events"`
}

// parseTagDoc extracts the /v1/tag document from GET query params or a POST
// JSON body — the one parser every serving mode (and the router) uses, so
// routing and tagging can never disagree about what the document says.
func parseTagDoc(r *http.Request) (*tagging.Document, int, errorBody) {
	var req tagRequest
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		req.Title, req.Content = q.Get("title"), q.Get("content")
		if es := q.Get("entities"); es != "" {
			req.Entities = strings.Split(es, ",")
		}
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			status, errb := bodyError("decode body", err)
			return nil, status, errb
		}
	default:
		return nil, http.StatusMethodNotAllowed, errBody(codeMethodNotAllowed, "use GET or POST")
	}
	if req.Title == "" && req.Content == "" {
		return nil, http.StatusBadRequest, errBody(codeInvalidArgument, "need a title or content")
	}
	return &tagging.Document{Title: req.Title, Content: req.Content, Entities: req.Entities}, 0, errorBody{}
}

// normalizeQuery is THE query normalization (lowercased token join) shared
// by lookup, cache keys and shard pruning — the same normalization
// queryund.Analyze applies — so a mixed-case or oddly-spaced query can
// never be routed differently from how it is analyzed.
func normalizeQuery(q string) string {
	return strings.Join(nlp.Tokenize(q), " ")
}

// resolveStorySeed resolves a /v1/story seed the way /v1/node resolves a
// typed phrase query (canonical phrase first, then alias, type=event) and
// returns the event's canonical phrase. The two 404 shapes distinguish a
// phrase that names a non-event node from one that names nothing, matching
// /v1/node's envelope for the latter.
func resolveStorySeed(snap *ontology.Snapshot, seed string) (string, int, errorBody) {
	if n, ok := snap.Find(ontology.Event, seed); ok {
		return n.Phrase, 0, errorBody{}
	}
	if id, ok := snap.LookupAlias(ontology.Event, seed); ok {
		return snap.At(id).Phrase, 0, errorBody{}
	}
	if _, ok := snap.LookupAny(seed); ok {
		return "", http.StatusNotFound, errBody(codeNotFound, "no event %q in the ontology", seed)
	}
	return "", http.StatusNotFound, errBody(codeNotFound, "node not found")
}

// toTagResults renders tags in wire form.
func toTagResults(tags []tagging.Tag) []tagResult {
	out := make([]tagResult, 0, len(tags))
	for _, t := range tags {
		out = append(out, tagResult{Phrase: t.Phrase, Type: t.Type.String(), Score: t.Score})
	}
	return out
}

// tagResponse is the /v1/tag body shared by every serving mode.
func tagResponse(concepts, events []tagging.Tag) map[string]any {
	return map[string]any{
		"concepts": toTagResults(concepts),
		"events":   toTagResults(events),
	}
}

// rewriteResponse is the /v1/query/rewrite body shared by every serving mode.
func rewriteResponse(a queryund.Analysis) map[string]any {
	return map[string]any{
		"query":           a.Query,
		"concept":         a.Concept,
		"entity":          a.Entity,
		"rewrites":        a.Rewrites,
		"recommendations": a.Recommendations,
	}
}

// storyEvent is the wire form of one story-tree event.
type storyEvent struct {
	Phrase   string   `json:"phrase"`
	Trigger  string   `json:"trigger,omitempty"`
	Location string   `json:"location,omitempty"`
	Day      int      `json:"day"`
	Entities []string `json:"entities,omitempty"`
}

// storyEncoder is the one story-tree encoder of every server and router.
var storyEncoder = storytree.NewBagOfTokensEncoder(16, nil)

// formStory forms the story tree seeded at phrase over events, with the
// same encoder and options on a backend and at the router, so the routed
// tree is byte-identical to a single server's.
func formStory(events []*storytree.EventNode, phrase string) (*storytree.Tree, bool) {
	return storytree.FormFromEvents(events, phrase, storyEncoder, storytree.DefaultOptions())
}

// storyResponse is the /v1/story body shared by every serving mode.
func storyResponse(tree *storytree.Tree) map[string]any {
	branches := make([][]storyEvent, 0, len(tree.Branches))
	for _, b := range tree.Branches {
		branch := make([]storyEvent, 0, len(b))
		for _, e := range b {
			branch = append(branch, storyEvent{Phrase: e.Phrase, Trigger: e.Trigger, Location: e.Location, Day: e.Day, Entities: e.Entities})
		}
		branches = append(branches, branch)
	}
	return map[string]any{"seed": tree.Seed, "branches": branches}
}

// handleTagPartial serves /v1/tag?partial=: "stats" reports the scope's
// home concepts (the merge site builds its concept index from K of these),
// "match" the per-document candidates.
func (st *state) handleTagPartial(mode string, r *http.Request) (int, any) {
	switch mode {
	case "stats":
		return http.StatusOK, tagStatsBody{Generation: st.gen, Concepts: st.conceptRefs()}
	case "match":
		doc, bad, errb := parseTagDoc(r)
		if bad != 0 {
			return bad, errb
		}
		scope := st.appScope()
		return http.StatusOK, tagMatchBody{
			Generation: st.gen,
			Entities:   st.concepts.MatchPartial(scope, doc),
			Events:     st.events.Partial(scope, doc),
		}
	default:
		return http.StatusBadRequest, errBody(codeInvalidArgument, "invalid partial: "+mode+` (want "stats" or "match")`)
	}
}

// appScope is the scope a partial-extraction request runs over: the
// projection's home slice on a per-shard server, the whole view otherwise
// (merging that single whole-view partial reproduces the plain answer, so
// the partial modes stay total on every server kind).
func (st *state) appScope() ontology.Scope {
	if st.proj != nil {
		return ontology.ProjectionScope(st.proj)
	}
	return ontology.UnionScope(st.snap)
}

// conceptRefs returns the state's concept stats partial over its own scope,
// computed once per state (the partial depends only on the published
// projection, which is immutable per state).
func (st *state) conceptRefs() []tagging.ConceptRef {
	if p := st.appRefs.Load(); p != nil {
		return *p
	}
	refs := st.concepts.ConceptStats(st.appScope())
	st.appRefs.Store(&refs)
	return refs
}
