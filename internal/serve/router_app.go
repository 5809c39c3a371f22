package serve

// Router-side scatter-gather for the application endpoints: /v1/tag,
// /v1/query/rewrite and /v1/story. Each handler gathers per-shard partials
// (the ?partial= modes of app.go) and runs the merge fold whose one-scope
// case is the union computation, so the merged response is byte-identical
// to a single union server's — there is no projection-local approximation
// left in the routed tier.
//
// Tag and rewrite scatters are pruned by the search routing index; every
// consulted shard is asked on every request, so a down shard always
// surfaces as partial or 503. The merged concept index (tag) and
// story-fragment list (story) are fleet-wide folds memoized until the next
// invalidate. A build that misses shards (fail-open) is used for the one
// response but never stored — the memo only ever holds a complete fold.
//
// Staleness follows the search protocol: a consulted shard whose response
// generation disagrees with the one read at memo-build time triggers one
// full retry against freshly dropped memos; a second disagreement reports
// 502 bad_upstream (the fleet is churning faster than the request can
// observe it).
//
// The merge-side thresholds (concept coherence/inference, rewrite
// expansion cap, story encoder and link options) are the package defaults
// here AND on every backend — serve.buildState constructs its taggers and
// understander the same way — which is what entitles the router to score
// candidates without shipping configuration around.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"giant/internal/ontology"
	"giant/internal/queryund"
	"giant/internal/storytree"
	"giant/internal/tagging"
)

// routerTagIndex is the router's merged concept index: the fold of every
// backend's ?partial=stats concepts, with the generations pinned at build
// time (ok[i] reports whether shard i answered the build fan-out; only
// then is gens[i] meaningful).
type routerTagIndex struct {
	gens []uint64
	ok   []bool
	ix   *tagging.ConceptIndex
}

// routerFragments is the router's merged story-fragment list, same shape.
type routerFragments struct {
	gens   []uint64
	ok     []bool
	events []*storytree.EventNode
}

// ensureTagIndex returns the merged concept index, rebuilding it from a
// full ?partial=stats fan-out when absent. Under fail-open a degraded
// build (failed lists the unanswered shards) is returned but NOT
// memoized; under fail-closed a degraded fleet aborts with 503. A
// non-zero status aborts the request with the returned body.
func (rt *Router) ensureTagIndex(ctx context.Context, meta *respMeta) (idx *routerTagIndex, failed []int, status int, errb any) {
	if idx := rt.tagIdx.Load(); idx != nil {
		return idx, nil, 0, nil
	}
	rt.tagMu.Lock()
	defer rt.tagMu.Unlock()
	if idx := rt.tagIdx.Load(); idx != nil {
		return idx, nil, 0, nil
	}
	results := rt.fanout(ctx, meta, http.MethodGet, "/v1/tag?partial=stats", nil)
	idx = &routerTagIndex{gens: make([]uint64, rt.k), ok: make([]bool, rt.k)}
	parts := make([][]tagging.ConceptRef, rt.k)
	for i := range results {
		if !results[i].ok() {
			failed = append(failed, i)
			continue
		}
		var parsed tagStatsBody
		if err := json.Unmarshal(results[i].body, &parsed); err != nil {
			return nil, nil, http.StatusBadGateway, errBodyShard(codeBadUpstream, i, "shard %d: bad tag stats response: %v", i, err)
		}
		idx.gens[i], idx.ok[i] = parsed.Generation, true
		parts[i] = parsed.Concepts
	}
	if len(failed) > 0 && !rt.opts.FailOpen {
		return nil, nil, http.StatusServiceUnavailable, errBody(codeShardUnavailable, "shards %v unavailable (fail-closed)", failed)
	}
	idx.ix = tagging.NewConceptIndex(parts...)
	if len(failed) == 0 {
		rt.tagIdx.Store(idx)
	}
	return idx, failed, 0, nil
}

// ensureFragments is ensureTagIndex for the story-fragment fold.
func (rt *Router) ensureFragments(ctx context.Context, meta *respMeta) (fr *routerFragments, failed []int, status int, errb any) {
	if fr := rt.frags.Load(); fr != nil {
		return fr, nil, 0, nil
	}
	rt.fragsMu.Lock()
	defer rt.fragsMu.Unlock()
	if fr := rt.frags.Load(); fr != nil {
		return fr, nil, 0, nil
	}
	results := rt.fanout(ctx, meta, http.MethodGet, "/v1/story?partial=fragments", nil)
	fr = &routerFragments{gens: make([]uint64, rt.k), ok: make([]bool, rt.k)}
	parts := make([][]*storytree.EventNode, rt.k)
	for i := range results {
		if !results[i].ok() {
			failed = append(failed, i)
			continue
		}
		var parsed storyFragsBody
		if err := json.Unmarshal(results[i].body, &parsed); err != nil {
			return nil, nil, http.StatusBadGateway, errBodyShard(codeBadUpstream, i, "shard %d: bad story fragments: %v", i, err)
		}
		fr.gens[i], fr.ok[i] = parsed.Generation, true
		parts[i] = parsed.Events
	}
	if len(failed) > 0 && !rt.opts.FailOpen {
		return nil, nil, http.StatusServiceUnavailable, errBody(codeShardUnavailable, "shards %v unavailable (fail-closed)", failed)
	}
	fr.events = storytree.MergeFragments(parts...)
	if len(failed) == 0 {
		rt.frags.Store(fr)
	}
	return fr, failed, 0, nil
}

// candidateShards prunes a fan-out to the shards whose term grams may
// contain at least one needle. idx == nil (or a shard with an unknown
// surface) routes conservatively; an empty needle list proves NO shard can
// contribute, so it returns none — the merge of zero partials is still a
// complete answer.
func (rt *Router) candidateShards(idx *routingIndex, needles []string) []int {
	if idx == nil {
		return rt.allShards()
	}
	out := make([]int, 0, rt.k)
	for i := range idx.shards {
		sh := &idx.shards[i]
		if !sh.ok || sh.grams == nil {
			out = append(out, i)
			continue
		}
		for _, n := range needles {
			if sh.grams.MayContain(n) {
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
// or topic candidate needs normalized LCS ≥ the serving threshold, which
// buildState fixes at NewEventTagger's 0.5 > 0 — so a candidate shares at
// least one token with the text, and every token of a home phrase is in
// its shard's grams).
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
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	seen := map[int]bool{}
	out := make([]int, 0, len(a)+len(b))
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
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
	doc, bad, errb := parseTagDoc(r)
	if bad != 0 {
		return bad, errb
	}
	// Re-marshal the parsed document so GET and POST requests scatter the
	// same canonical body — shards never see the raw request encoding.
	body, err := json.Marshal(tagRequest{Title: doc.Title, Content: doc.Content, Entities: doc.Entities})
	if err != nil {
		return http.StatusInternalServerError, errBody(codeInternal, "encode document: "+err.Error())
	}
	for attempt := 0; ; attempt++ {
		idx, idxFailed, status, ierr := rt.ensureTagIndex(r.Context(), meta)
		if status != 0 {
			return status, ierr
		}
		var ridx *routingIndex
		if attempt == 0 {
			ridx = rt.ensureRouting(r.Context())
		}
		candidates := rt.candidateShards(ridx, tagNeedles(doc))
		results := rt.scatter(r.Context(), meta, candidates, http.MethodPost, "/v1/tag?partial=match", body)
		matchParts := make([][][]tagging.ConceptRef, 0, len(candidates))
		evParts := make([][]tagging.EventCand, 0, len(candidates))
		var failed []int
		stale := false
		for j, sh := range candidates {
			if !results[j].ok() {
				failed = append(failed, sh)
				continue
			}
			var parsed tagMatchBody
			if err := json.Unmarshal(results[j].body, &parsed); err != nil {
				return http.StatusBadGateway, errBodyShard(codeBadUpstream, sh, "shard %d: bad tag partial: %v", sh, err)
			}
			if idx.ok[sh] && parsed.Generation != idx.gens[sh] {
				stale = true
				break
			}
			matchParts = append(matchParts, parsed.Entities)
			evParts = append(evParts, parsed.Events)
		}
		if stale {
			// A backend republished between the index build and this
			// scatter: drop the memos and retry once against a fresh world.
			// A second race means the fleet is churning continuously; there
			// is no consistent merge to report.
			rt.invalidate()
			if attempt == 0 {
				continue
			}
			return http.StatusBadGateway, errBody(codeBadUpstream, "backend generations churned during tag merge; retry")
		}
		failed = mergeFailed(idxFailed, failed)
		if len(failed) > 0 && !rt.opts.FailOpen {
			return http.StatusServiceUnavailable, errBody(codeShardUnavailable, "shards %v unavailable (fail-closed)", failed)
		}
		slots := tagging.MergeMatchSlots(matchParts, len(doc.Entities))
		concepts := idx.ix.Tag(doc, slots, tagging.DefaultCoherenceThreshold, tagging.DefaultInferThreshold)
		events := tagging.MergeEventCands(evParts...)
		return http.StatusOK, markPartial(tagResponse(concepts, events), failed)
	}
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
	needles := strings.Fields(qnorm)
	for attempt := 0; ; attempt++ {
		var idx *routingIndex
		if attempt == 0 {
			idx = rt.ensureRouting(r.Context())
		}
		candidates := rt.candidateShards(idx, needles)
		results := rt.scatter(r.Context(), meta, candidates, http.MethodGet, pq, nil)
		parts := make([]*queryund.Partial, len(candidates))
		var failed []int
		stale := false
		for j, sh := range candidates {
			if !results[j].ok() {
				failed = append(failed, sh)
				continue
			}
			var parsed rewritePartialBody
			if err := json.Unmarshal(results[j].body, &parsed); err != nil {
				return http.StatusBadGateway, errBodyShard(codeBadUpstream, sh, "shard %d: bad rewrite partial: %v", sh, err)
			}
			parts[j] = parsed.Partial
			if idx != nil && idx.shards[sh].ok && parsed.Generation != idx.shards[sh].gen {
				stale = true
			}
		}
		if stale {
			rt.invalidate()
			if attempt == 0 {
				continue
			}
			return http.StatusBadGateway, errBody(codeBadUpstream, "backend generations churned during rewrite merge; retry")
		}
		if len(failed) > 0 && !rt.opts.FailOpen {
			return http.StatusServiceUnavailable, errBody(codeShardUnavailable, "shards %v unavailable (fail-closed)", failed)
		}
		a := queryund.Merge(rawq, parts, queryund.DefaultMaxExpansions)
		return http.StatusOK, markPartial(rewriteResponse(a), failed)
	}
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
	for attempt := 0; ; attempt++ {
		frags, fragsFailed, status, ferr := rt.ensureFragments(r.Context(), meta)
		if status != 0 {
			return status, ferr
		}
		// Resolution noted each consulted shard's generation; a memoized
		// fragment list pinned at different generations would mix worlds.
		stale := false
		for s := 0; s < rt.k; s++ {
			if g := meta.genOf(s); g != "" && frags.ok[s] && g != strconv.FormatUint(frags.gens[s], 10) {
				stale = true
				break
			}
		}
		if stale {
			rt.invalidate()
			if attempt == 0 {
				continue
			}
			return http.StatusBadGateway, errBody(codeBadUpstream, "backend generations churned during story merge; retry")
		}
		tree, ok := storytree.FormFromEvents(frags.events, phrase, rt.enc, rt.story)
		if !ok {
			if len(fragsFailed) > 0 {
				// The event resolved but its fragment is on a missing shard —
				// fail-open has no meaningful partial tree without the seed.
				return http.StatusBadGateway, errBody(codeShardUnavailable, "shards %v unavailable", fragsFailed)
			}
			return http.StatusNotFound, errBody(codeNotFound, "no event %q in the ontology", seed)
		}
		return http.StatusOK, markPartial(storyResponse(tree), mergeFailed(resolveFailed, fragsFailed))
	}
}

// resolveStorySeed resolves a story seed to its canonical event phrase
// through the fleet, mirroring serve.resolveStorySeed over the union:
// the typed home shard answers canonical-phrase matches outright, an
// alias scatter picks the union-precedence winner, and a miss is
// classified by an untyped scatter into the two /v1/node-compatible 404
// shapes. A non-zero status aborts with the returned body.
func (rt *Router) resolveStorySeed(ctx context.Context, meta *respMeta, seed string) (phrase string, failed []int, status int, errb any) {
	rq := url.Values{"phrase": {seed}, "type": {"event"}}.Encode()
	var (
		chosen  *shardNodeDetail
		seedAns *shardNodeDetail
		skip    = -1
	)
	primary := ontology.HomeShard(ontology.Event, seed, rt.k)
	res := rt.call(ctx, primary, http.MethodGet, "/v1/node?"+rq, nil)
	switch {
	case res.err != nil || res.status >= 500:
		// Unreachable primary joins the scatter's failed accounting below —
		// unlike /v1/node's typed lookup, story resolution can still
		// succeed through an alias homed elsewhere.
	case res.status == http.StatusOK:
		meta.noteGen(primary, res.gen)
		skip = primary
		var d shardNodeDetail
		if err := json.Unmarshal(res.body, &d); err != nil {
			return "", nil, http.StatusBadGateway, errBodyShard(codeBadUpstream, primary, "shard %d: bad node response: %v", primary, err)
		}
		if d.Match == "phrase" {
			// The canonical phrase can live on no other shard.
			return d.Node.Phrase, nil, 0, nil
		}
		seedAns = &d
	default:
		meta.noteGen(primary, res.gen)
		skip = primary
	}
	best, scatterFailed, st := rt.scatterNode(ctx, meta, rq, skip, seedAns)
	switch st {
	case 0:
	case http.StatusServiceUnavailable:
		return "", nil, st, errBody(codeShardUnavailable, "shards %v unavailable (fail-closed)", scatterFailed)
	default:
		return "", nil, st, errBody(codeShardUnavailable, "shards %v unavailable", scatterFailed)
	}
	if best != nil {
		chosen = best
	}
	if chosen == nil {
		// No event answers to this seed anywhere. Distinguish "names a
		// non-event node" from "names nothing" the way the single server
		// does, via an untyped existence scatter.
		hit, anyFailed, st := rt.scatterNode(ctx, meta, url.Values{"phrase": {seed}}.Encode(), -1, nil)
		if st == http.StatusServiceUnavailable {
			return "", nil, st, errBody(codeShardUnavailable, "shards %v unavailable (fail-closed)", anyFailed)
		}
		if hit != nil {
			return "", nil, http.StatusNotFound, errBody(codeNotFound, "no event %q in the ontology", seed)
		}
		if st != 0 || len(anyFailed) > 0 {
			// A missing shard could hold the answer: "not found" would be a
			// guess, not a fact.
			return "", nil, http.StatusBadGateway, errBody(codeShardUnavailable, "shards %v unavailable", mergeFailed(scatterFailed, anyFailed))
		}
		return "", nil, http.StatusNotFound, errBody(codeNotFound, "node not found")
	}
	return chosen.Node.Phrase, scatterFailed, 0, nil
}
