package serve

// Router-side scatter-gather for the application endpoints: /v1/tag,
// /v1/query/rewrite and /v1/story. Each handler gathers per-shard partials
// (the ?partial= modes of app.go) and runs the merge fold whose one-scope
// case is the union computation, so the merged response is byte-identical
// to a single union server's — there is no projection-local approximation
// left in the routed tier.
//
// Every read here, like search and node, runs through scatterFold. Tag
// and rewrite scatters are pruned by the search routing index; every
// consulted shard is asked on every request, so a down shard always
// surfaces as partial or 503. The merged concept index (tag) and
// story-fragment list (story) are fleet-wide folds memoized per log
// position. A build that misses shards (fail-open) is used for the one
// response but never stored — the memo only ever holds a complete fold.
//
// On a delta-log fleet the one rule is the pin (see router.go): the
// read's scatters, its memo builds and the memos it reuses are all at the
// log position the read was pinned to, so the merge never mixes worlds.
//
// The merge-side thresholds (concept coherence/inference, rewrite
// expansion cap, story encoder and link options, search result cap) are
// constants here AND on every backend, not options: serve.buildState
// constructs its taggers and understander with the package defaults, and
// both sides form trees through formStory and clamp searches through
// parseSearchParams. Nothing can set them apart, which is what entitles
// the router to score candidates without shipping configuration around.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"slices"
	"strings"

	"giant/internal/ontology"
	"giant/internal/queryund"
	"giant/internal/storytree"
	"giant/internal/tagging"
)

// routerTagIndex is the router's merged concept index: the fold of every
// backend's ?partial=stats concepts.
type routerTagIndex struct {
	ix *tagging.ConceptIndex
}

// routerFragments is the router's merged story-fragment list, same shape.
type routerFragments struct {
	events []*storytree.EventNode
}

// ensureTagIndex returns the merged concept index at the read's log
// position, building it from a full ?partial=stats fan-out when absent.
// Under fail-open a degraded build (failed lists the unanswered shards) is
// returned but NOT memoized; under fail-closed a degraded fleet aborts
// with 503. A non-zero status aborts the request with the returned body.
func (rt *Router) ensureTagIndex(ctx context.Context, meta *respMeta) (idx *routerTagIndex, failed []int, status int, errb any) {
	at, _ := pinOf(ctx)
	return rt.tagIdx.get(at, func() (*routerTagIndex, []int, int, any) {
		g, status, errb := scatterFold(rt, ctx, meta, read[tagStatsBody]{part: "tag stats response", path: "/v1/tag?partial=stats"})
		if status != 0 {
			return nil, nil, status, errb
		}
		parts := make([][]tagging.ConceptRef, len(g.parts))
		for i, p := range g.parts {
			parts[i] = p.Concepts
		}
		return &routerTagIndex{ix: tagging.NewConceptIndex(parts...)}, g.failed, 0, nil
	})
}

// ensureFragments is ensureTagIndex for the story-fragment fold.
func (rt *Router) ensureFragments(ctx context.Context, meta *respMeta) (fr *routerFragments, failed []int, status int, errb any) {
	at, _ := pinOf(ctx)
	return rt.frags.get(at, func() (*routerFragments, []int, int, any) {
		g, status, errb := scatterFold(rt, ctx, meta, read[storyFragsBody]{part: "story fragments", path: "/v1/story?partial=fragments"})
		if status != 0 {
			return nil, nil, status, errb
		}
		parts := make([][]*storytree.EventNode, len(g.parts))
		for i, p := range g.parts {
			parts[i] = p.Events
		}
		return &routerFragments{events: storytree.MergeFragments(parts...)}, g.failed, 0, nil
	})
}

// candidateShards prunes a fan-out to the shards whose term grams may
// contain at least one needle. A shard with an unknown surface routes
// conservatively; an empty needle list proves NO shard can contribute, so
// it returns none — the merge of zero partials is still a complete answer.
func (rt *Router) candidateShards(idx *routingIndex, needles []string) []int {
	out := make([]int, 0, rt.k)
	for i, grams := range idx.grams {
		if grams == nil {
			out = append(out, i)
			continue
		}
		for _, n := range needles {
			if grams.MayContain(n) {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// tagNeedles are the strings whose gram hits decide which shards a tag
// request must consult: each entity name lowercased (the fold nodeKey
// applies, so a gram miss proves the shard homes neither the entity nor
// any ancestor reachable through it — parents are reported by the
// entity's own home shard) and each token of the matching text (an event
// or topic candidate needs normalized LCS ≥ the tagger's fixed threshold
// of 0.5 > 0 — so a candidate shares at least one token with the text, and
// every token of a home phrase is in its shard's grams).
func tagNeedles(doc *tagging.Document) []string {
	seen := map[string]bool{}
	var out []string
	add := func(s string) {
		if s != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, e := range doc.Entities {
		add(strings.ToLower(e))
	}
	for _, t := range tagging.DocTokens(doc) {
		add(t)
	}
	return out
}

// mergeFailed unions two failed-shard lists, sorted ascending.
func mergeFailed(a, b []int) []int {
	out := slices.Concat(a, b)
	slices.Sort(out)
	return slices.Compact(out)
}

// markPartial annotates a fail-open response that is missing shards.
func markPartial(resp map[string]any, failed []int) map[string]any {
	if len(failed) > 0 {
		resp["partial"] = true
		resp["missing_shards"] = failed
	}
	return resp
}

// handleTag answers /v1/tag with the union-exact merge: per-shard
// ?partial=match candidates (gram-pruned scatter) scored against the
// merged concept index.
func (rt *Router) handleTag(r *http.Request, meta *respMeta) (int, any) {
	doc, bad, perr := parseTagDoc(r)
	if bad != 0 {
		return bad, perr
	}
	// Re-marshal the parsed document so GET and POST requests scatter the
	// same canonical body — shards never see the raw request encoding.
	body, err := json.Marshal(tagRequest{Title: doc.Title, Content: doc.Content, Entities: doc.Entities})
	if err != nil {
		return http.StatusInternalServerError, errBody(codeInternal, "encode document: "+err.Error())
	}
	idx, idxFailed, status, errb := rt.ensureTagIndex(r.Context(), meta)
	if status != 0 {
		return status, errb
	}
	g, status, errb := scatterFold(rt, r.Context(), meta, read[tagMatchBody]{
		part:   "tag partial",
		method: http.MethodPost, path: "/v1/tag?partial=match", body: body,
		route: true, needles: tagNeedles(doc),
	})
	if status != 0 {
		return status, errb
	}
	matchParts := make([][][]tagging.ConceptRef, len(g.parts))
	evParts := make([][]tagging.EventCand, len(g.parts))
	for j, p := range g.parts {
		matchParts[j], evParts[j] = p.Entities, p.Events
	}
	slots := tagging.MergeMatchSlots(matchParts, len(doc.Entities))
	concepts := idx.ix.Tag(doc, slots, tagging.DefaultCoherenceThreshold, tagging.DefaultInferThreshold)
	events := tagging.MergeEventCands(evParts...)
	return http.StatusOK, markPartial(tagResponse(concepts, events), mergeFailed(idxFailed, g.failed))
}

// handleQueryRewrite answers /v1/query/rewrite by folding per-shard
// rewrite partials. The scatter carries the NORMALIZED query — partials
// depend only on it, so mixed-case or oddly-spaced variants of one query
// route to the same shards and send them the same request; the raw query
// reappears only in the merge, which prefixes rewrites with it.
func (rt *Router) handleQueryRewrite(r *http.Request, meta *respMeta) (int, any) {
	rawq := r.URL.Query().Get("q")
	if rawq == "" {
		return http.StatusBadRequest, errBody(codeInvalidArgument, "need ?q=")
	}
	qnorm := normalizeQuery(rawq)
	pq := "/v1/query/rewrite?" + url.Values{"partial": {"1"}, "q": {qnorm}}.Encode()
	g, status, errb := scatterFold(rt, r.Context(), meta, read[rewritePartialBody]{
		part: "rewrite partial", path: pq,
		route: true, needles: strings.Fields(qnorm),
	})
	if status != 0 {
		return status, errb
	}
	parts := make([]*queryund.Partial, len(g.parts))
	for j, p := range g.parts {
		parts[j] = p.Partial
	}
	a := queryund.Merge(rawq, parts, queryund.DefaultMaxExpansions)
	return http.StatusOK, markPartial(rewriteResponse(a), g.failed)
}

// handleStory answers /v1/story: the seed resolves to its canonical event
// phrase exactly like a typed /v1/node lookup (home-shard fast path, then
// an alias scatter under the union's precedence order), and the tree
// forms at the router over the merged fragment list.
func (rt *Router) handleStory(r *http.Request, meta *respMeta) (int, any) {
	seed := r.URL.Query().Get("seed")
	if seed == "" {
		return http.StatusBadRequest, errBody(codeInvalidArgument, "need ?seed=")
	}
	phrase, resolveFailed, status, rerr := rt.resolveStorySeed(r.Context(), meta, seed)
	if status != 0 {
		return status, rerr
	}
	// A fragment build that misses shards fails closed inside (scatterFold)
	// unless FailOpen, so failed lists them only on a partial answer.
	frags, failed, status, errb := rt.ensureFragments(r.Context(), meta)
	if status != 0 {
		return status, errb
	}
	tree, ok := formStory(frags.events, phrase)
	if !ok {
		if len(failed) > 0 {
			// The event resolved but its fragment is on a missing shard —
			// fail-open has no meaningful partial tree without the seed.
			return http.StatusBadGateway, errBody(codeShardUnavailable, "shards %v unavailable", failed)
		}
		return http.StatusNotFound, errBody(codeNotFound, "no event %q in the ontology", seed)
	}
	return http.StatusOK, markPartial(storyResponse(tree), mergeFailed(resolveFailed, failed))
}

// resolveStorySeed resolves a story seed to its canonical event phrase
// through the fleet, mirroring serve.resolveStorySeed over the union:
// the typed home shard answers canonical-phrase matches outright, an
// alias scatter picks the union-precedence winner, and a miss is
// classified by an untyped scatter into the two /v1/node-compatible 404
// shapes. A non-zero status aborts with the returned body.
func (rt *Router) resolveStorySeed(ctx context.Context, meta *respMeta, seed string) (phrase string, failed []int, status int, errb any) {
	rq := url.Values{"phrase": {seed}, "type": {"event"}}.Encode()
	var seedAns *shardNodeDetail
	skip := -1
	primary := ontology.HomeShard(ontology.Event, seed, rt.k)
	// An unreachable primary joins the scatter's failed accounting below —
	// unlike /v1/node's typed lookup, story resolution can still succeed
	// through an alias homed elsewhere.
	if res := rt.call(ctx, primary, http.MethodGet, "/v1/node?"+rq, nil); res.err == nil && res.status < 500 {
		meta.noteGen(primary, res.gen)
		d, _, err := decodeNode(res.status, res.body)
		if err != nil {
			return "", nil, http.StatusBadGateway, errBodyShard(codeBadUpstream, primary, "shard %d: %v", primary, err)
		}
		if d != nil && d.Match == "phrase" {
			// The canonical phrase can live on no other shard.
			return d.Node.Phrase, nil, 0, nil
		}
		seedAns, skip = d, primary
	}
	best, failed, status, errb := rt.scatterNode(ctx, meta, rq, skip, seedAns)
	switch {
	case status != 0:
		return "", nil, status, errb
	case best != nil:
		return best.Node.Phrase, failed, 0, nil
	case len(failed) == 0:
		// No event answers to this seed anywhere. Distinguish "names a
		// non-event node" from "names nothing" the way the single server
		// does, via an untyped existence scatter.
		var hit *shardNodeDetail
		if hit, failed, status, errb = rt.scatterNode(ctx, meta, url.Values{"phrase": {seed}}.Encode(), -1, nil); status != 0 {
			return "", nil, status, errb
		}
		if hit != nil {
			return "", nil, http.StatusNotFound, errBody(codeNotFound, "no event %q in the ontology", seed)
		}
		if len(failed) == 0 {
			return "", nil, http.StatusNotFound, errBody(codeNotFound, "node not found")
		}
	}
	// A missing shard could hold the answer: "not found" would be a guess,
	// not a fact.
	return "", nil, http.StatusBadGateway, errBody(codeShardUnavailable, "shards %v unavailable", failed)
}
