// Package serve is the online tier of the reproduction: an HTTP server that
// exposes a built Attention Ontology the way the paper's production system
// does (§4 — document tagging, query conceptualization/rewriting, story
// trees) plus operational endpoints (stats, search, metrics, health).
//
// A served state's generation is the fleet delta log's position of the
// last applied batch that changed it (ontology.ShardChanged), so one
// clock names every state: it is 0 until a batch changes the shard, and
// on every frozen server.
//
// The server holds an immutable *ontology.Snapshot — together with the taggers, the
// query understander and a bounded LRU response cache derived from it — in
// a single atomically-swapped state pointer. Request handlers load that
// pointer once and then perform lock-free reads for the rest of the
// request. A whole-world server (New, NewSharded) publishes once and is
// frozen: it changes only by a restart. A per-shard replica changes only
// through its delta log: each applied batch indexes the next snapshot off
// to the side and publishes it with one atomic store, so serving continues
// uninterrupted on the old snapshot until the new one is fully built. The
// replica keeps the state it replaced, and only that one: a router read
// pinned to a log position (pinHeader) is answered from whichever of the
// two covers it, or refused (see readState). An older snapshot, cache
// included, is garbage-collected once in-flight requests drain.
//
// Endpoints:
//
//	GET  /healthz           liveness + current generation (log position)
//	GET  /v1/stats          node/edge counts per type
//	GET  /v1/node           node detail by ?id= or ?phrase=[&type=]
//	GET  /v1/search         substring search over phrases and aliases
//	GET  /v1/tag            tag a document (?title=&content=&entities=a,b)
//	POST /v1/tag            tag a document (JSON body)
//	GET  /v1/query/rewrite  conceptualize + rewrite a query (?q=)
//	GET  /v1/story          story tree seeded at an event (?seed=)
//	GET  /v1/metrics        per-endpoint QPS/latency/cache counters
//	POST /v1/ingest         503 on every server: writes go through a
//	                        router's delta log (see router.go), which
//	                        replicas apply (see replica.go)
//
// Any other /v1 path answers 404 not_found in the error envelope.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"giant/internal/delta"
	"giant/internal/ontology"
	"giant/internal/queryund"
	"giant/internal/storytree"
	"giant/internal/tagging"
	"giant/internal/wal"
)

// Options configure a Server.
type Options struct {
	// CacheSize bounds the LRU response cache each published state carries
	// (entries); 0 means DefaultCacheSize, negative disables caching.
	CacheSize int
	// ShardIngest applies an incremental update batch on a per-shard server
	// (NewShard), and only the attached delta-log Follower calls it: no
	// server accepts direct writes. It gets the decoded batch and the log
	// record it came from (position and payload, which key the fleet's
	// shared mined outcome, see wal.Outcome). The host applies the batch
	// through its full mining system and returns the union it applied the
	// batch to, the union it produced and the delta. The server derives its
	// own shard from them: it re-projects the shard and moves its generation
	// to the batch's log position only when ontology.ShardChanged says the
	// delta (delta.TouchedShards) changed it, and otherwise rebases the
	// projection it serves onto the new union (the union IDs may have
	// shifted) under its unchanged generation.
	ShardIngest func(delta.Batch, wal.Record) (prev, next *ontology.Snapshot, d *delta.Delta, err error)
	// ConceptContextFn, when set, supplies the build's concept -> top
	// clicked titles map for every published state, enriching the concept
	// tagger's representations (so live ingest keeps them current). It is
	// called under the swap lock, serialized with the ingest callback.
	ConceptContextFn func() map[string][]string
	// Duet optionally supplies a trained event/topic matcher; nil degrades
	// event tagging to LCS-only.
	Duet *tagging.Duet
	// CheckpointSave captures the host's full apply state for a
	// checkpoint artifact: the UNION snapshot (per-shard projections are
	// re-derived deterministically from it on restore) plus an opaque
	// host-state blob (click-log tail, mining context). It is called from
	// the follower goroutine between applies, where the host state is
	// quiescent — the follower is the replica's only writer. Nil disables
	// background checkpointing and POST /v1/checkpoint.
	CheckpointSave func() (*ontology.Snapshot, []byte, error)
	// CheckpointRestore rebuilds the host's apply state from a
	// checkpoint's union snapshot and state blob; the server derives its
	// shard's projection from that union itself. Nil disables checkpoint
	// boot (HydrateShard).
	CheckpointRestore func(*ontology.Snapshot, []byte) error
}

// DefaultCacheSize bounds the response cache when Options.CacheSize is 0.
const DefaultCacheSize = 1024

// state bundles one snapshot with everything derived from it. It is
// immutable after construction and swapped as a unit, so a request that
// loaded a state sees a consistent ontology + taggers + cache throughout.
// There are two shapes: a whole-world state (New, NewSharded) sets shards
// and serves its union; a per-shard-process state (NewShard) sets proj and
// serves that one projection.
type state struct {
	snap     *ontology.Snapshot
	concepts *tagging.ConceptTagger
	events   *tagging.EventTagger
	query    *queryund.Understander
	// storyEvents is the snapshot's event list materialized once for
	// story-tree formation, so /v1/story doesn't re-walk the ontology's
	// Involve edges on every request.
	storyEvents []*storytree.EventNode
	// cache is the state's one response cache; it is dropped with the state.
	cache *lruOf[[]byte]
	// gen is the log position of the last applied batch that changed this
	// state's shard (0 before any such batch, and on a frozen server).
	gen uint64
	// pos is the log position this state was published at: the batch whose
	// apply produced it, or the boot position. It is the shard's world at
	// every position from pos up to the next publish.
	pos      uint64
	loadedAt time.Time
	// prev is the state this one replaced on a per-shard server (nil
	// otherwise). The next publish drops it, so a replica holds at most two
	// states: enough to answer a read pinned one batch back.
	prev atomic.Pointer[state]
	// shards is the whole-world server's sharded view (K=1 under New) and
	// snap its union: every read answers from the union, /v1/search through
	// shards.Search. Nil on a per-shard process.
	shards *ontology.ShardedSnapshot
	// proj identifies a per-shard-process server (NewShard): snap is then
	// one shard's projection, search scans only its home-node prefix, and
	// node responses render union IDs through the projection's ID table.
	proj *ontology.ShardProjection
	// appRefs memoizes the concept stats partial /v1/tag?partial=stats
	// reports (see app.go). It is built lazily on first use; racing builds
	// compute identical values (the input is the state's immutable
	// snapshot), so the last store winning is benign.
	appRefs atomic.Pointer[[]tagging.ConceptRef]
}

// Server serves a hot-swappable ontology snapshot over HTTP.
type Server struct {
	opts      Options
	cur       atomic.Pointer[state]
	swapMu    sync.Mutex // serializes publishes; readers never take it
	metrics   *metricsRegistry
	mux       *http.ServeMux
	shardMode bool // built with NewShard: serves one shard projection
	// wal is non-nil on a delta-log replica (a NewShard server with an
	// attached Follower): the server then refuses direct writes as
	// read_only_replica and answers /v1/wal with its applied log
	// position for the router's quorum acks and read gating.
	wal atomic.Pointer[walState]
}

// endpointNames fixes the metrics registry key set.
var endpointNames = []string{
	"healthz", "stats", "node", "search", "tag", "query_rewrite", "story", "metrics", "ingest", "wal", "checkpoint",
}

// newServer applies option defaults and wires the fields shared by both
// server kinds; the caller publishes an initial state and routes.
func newServer(opts Options) *Server {
	if opts.CacheSize == 0 {
		opts.CacheSize = DefaultCacheSize
	}
	return &Server{opts: opts, metrics: newMetricsRegistry(endpointNames)}
}

// New builds a whole-world Server over an initial snapshot: NewSharded over
// a single shard whose projection is the snapshot itself (no copy).
func New(snap *ontology.Snapshot, opts Options) *Server {
	// ShardSnapshot only fails projecting k > 1 shards.
	ss, _ := ontology.ShardSnapshot(snap, 1)
	return NewSharded(ss, opts)
}

// NewSharded builds a whole-world Server over a sharded snapshot. The
// process holds the union, so every read answers from it through the
// state's one response cache; the shard count only routes /v1/search
// through the shards' term-gram indexes (ShardedSnapshot.Search) and sets
// the shard rows of /healthz and /v1/stats. The server publishes once and
// is frozen: POST /v1/ingest answers 503, and a writable deployment is a
// router with a delta log in front of per-shard replicas.
func NewSharded(ss *ontology.ShardedSnapshot, opts Options) *Server {
	s := newServer(opts)
	st := s.buildState(ss.Union(), 0)
	st.shards = ss
	s.cur.Store(st)
	s.routes()
	return s
}

// NewShard builds a per-shard-process Server over one shard's projection —
// the backend of the multi-process serving tier (cmd/giantrouter fans out
// over K of these). /v1/search scans only the projection's home-node
// prefix and /v1/node resolves home nodes only, both rendering union node
// IDs through the projection's ID table, so a router merging K shard
// responses reproduces the in-process NewSharded output byte for byte.
// /healthz and /v1/stats carry the shard identity and per-shard
// generation. /v1/tag, /v1/query/rewrite and /v1/story additionally
// expose ?partial= modes reporting the shard's home candidates with
// union IDs (see app.go); the router merges those partials into
// union-exact responses, while the plain endpoints keep answering from
// the projection alone for standalone inspection.
func NewShard(p *ontology.ShardProjection, opts Options) *Server {
	return newShard(p, 0, 0, opts)
}

// newShard is NewShard serving p at generation since, published at log
// position at: HydrateShard reads both from the checkpoint it boots.
func newShard(p *ontology.ShardProjection, since, at uint64, opts Options) *Server {
	s := newServer(opts)
	s.shardMode = true
	s.publishShardLocked(p, since, at) // not reachable yet: no lock needed
	s.routes()
	return s
}

// buildState indexes one snapshot into a full serving state (taggers,
// understander, fresh cache). A publish calls it under swapMu; the
// constructors, which publish before the server is reachable, need no lock.
func (s *Server) buildState(snap *ontology.Snapshot, gen uint64) *state {
	var conceptCtx map[string][]string
	if s.opts.ConceptContextFn != nil {
		conceptCtx = s.opts.ConceptContextFn()
	}
	return &state{
		snap:        snap,
		concepts:    tagging.NewConceptTagger(snap, conceptCtx),
		events:      tagging.NewEventTagger(snap, s.opts.Duet),
		query:       queryund.New(snap),
		storyEvents: storytree.EventsFromView(snap),
		cache:       newLRU[[]byte](s.opts.CacheSize),
		gen:         gen,
		loadedAt:    time.Now(),
	}
}

// publishShardLocked publishes a per-shard serving state at generation
// gen and log position at: a fresh union-ID table and a fresh cache every
// time, so an ingest that left this shard unchanged still tracks union
// renumbering under its unchanged generation. The new state keeps the one
// it replaces, which lets go of its own predecessor. The caller holds
// swapMu.
func (s *Server) publishShardLocked(p *ontology.ShardProjection, gen, at uint64) {
	st := s.buildState(p.Snap, gen)
	st.proj, st.pos = p, at
	old := s.cur.Load()
	st.prev.Store(old)
	s.cur.Store(st)
	if old != nil {
		old.prev.Store(nil)
	}
}

// readState picks the state a request reads: the current one, except on a
// delta-log replica asked to read at log position P (pinHeader, sent by a
// router with a log). The replica then reads the newest state it holds
// published at or before P. It refuses (statusRefused) when it has not
// applied P yet, or when P predates both states it holds. The applied
// position is read before the state: every batch up to it was published
// by then, so the state loaded after it covers every position from its
// own up to that one.
func (s *Server) readState(r *http.Request) (*state, int, any) {
	ws := s.wal.Load()
	if ws == nil {
		return s.cur.Load(), 0, nil
	}
	raw := r.Header.Get(pinHeader)
	if raw == "" {
		return s.cur.Load(), 0, nil
	}
	at, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return s.cur.Load(), http.StatusBadRequest, errBody(codeInvalidArgument, "invalid "+pinHeader+": "+raw)
	}
	applied := ws.position()
	st := s.cur.Load()
	if at <= applied {
		if at >= st.pos {
			return st, 0, nil
		}
		if prev := st.prev.Load(); prev != nil && at >= prev.pos {
			return prev, 0, nil
		}
	}
	return st, statusRefused, errBody(codeUnavailable, "replica at log position %d holds no state at pinned position %d", applied, at)
}

// Current returns the snapshot serving right now.
func (s *Server) Current() *ontology.Snapshot {
	return s.cur.Load().snap
}

// ShardProjection returns the shard projection serving right now (nil on
// a server not built with NewShard).
func (s *Server) ShardProjection() *ontology.ShardProjection {
	return s.cur.Load().proj
}

// Generation returns the serving generation: the log position of the last
// applied batch that changed this server's shard, 0 before any.
func (s *Server) Generation() uint64 {
	return s.cur.Load().gen
}

// Handler returns the HTTP handler for the server's endpoint set.
func (s *Server) Handler() http.Handler {
	return s.mux
}

func (s *Server) routes() {
	nodeHandler := s.handleNode
	if s.shardMode {
		nodeHandler = s.handleShardNode
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.endpoint("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("/v1/stats", s.endpoint("stats", false, s.handleStats))
	s.mux.HandleFunc("/v1/node", s.endpoint("node", true, nodeHandler))
	s.mux.HandleFunc("/v1/search", s.endpoint("search", true, s.handleSearch))
	s.mux.HandleFunc("/v1/tag", s.endpoint("tag", false, s.handleTag))
	s.mux.HandleFunc("/v1/query/rewrite", s.endpoint("query_rewrite", true, s.handleQueryRewrite))
	s.mux.HandleFunc("/v1/story", s.endpoint("story", true, s.handleStory))
	s.mux.HandleFunc("/v1/metrics", s.endpoint("metrics", false, s.handleMetrics))
	s.mux.HandleFunc("/v1/ingest", s.endpoint("ingest", false, s.handleIngest))
	s.mux.HandleFunc("/v1/wal", s.endpoint("wal", false, s.handleWAL))
	s.mux.HandleFunc("/v1/checkpoint", s.endpoint("checkpoint", false, s.handleCheckpoint))
	s.mux.HandleFunc("/v1/", unknownEndpoint)
}

// handlerFunc is one endpoint's logic: it reads only from st (never from
// s.cur, which may have been swapped mid-request) and returns a status and
// a JSON-marshalable payload.
type handlerFunc func(st *state, r *http.Request) (int, any)

// endpoint wraps an endpoint with metrics and, for cacheable GETs, the
// state's LRU response cache (keyed by request URI, 200s only).
func (s *Server) endpoint(name string, cacheable bool, fn handlerFunc) http.HandlerFunc {
	m := s.metrics.endpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		st, status, refused := s.readState(r)
		useCache := status == 0 && cacheable && r.Method == http.MethodGet
		if useCache {
			if body, ok := st.cache.get(r.URL.RequestURI()); ok {
				s.setGenHeaders(w, st)
				writeBody(w, http.StatusOK, body, true)
				m.observe(http.StatusOK, time.Since(start), true)
				return
			}
		}
		payload := refused
		if status == 0 {
			status, payload = fn(st, r)
		}
		body, err := json.Marshal(payload)
		if err != nil {
			status = http.StatusInternalServerError
			body, _ = json.Marshal(errBody(codeInternal, "encode response: "+err.Error()))
		}
		// Terminate the body before it can be cached: cached bytes are
		// served verbatim to any number of concurrent readers, so nothing
		// may append to (and thereby mutate) the shared backing array later.
		body = append(body, '\n')
		if useCache && status == http.StatusOK {
			st.cache.put(r.URL.RequestURI(), body)
		}
		s.setGenHeaders(w, st)
		writeBody(w, status, body, false)
		m.observe(status, time.Since(start), false)
	}
}

// setGenHeaders stamps the generation headers on every response: the
// serving generation of the state that answered, and — on a delta-log
// replica — the current applied log position, read AFTER the handler ran
// so a blocking /v1/wal wait reports its post-wait position.
func (s *Server) setGenHeaders(w http.ResponseWriter, st *state) {
	w.Header().Set(genHeader, strconv.FormatUint(st.gen, 10))
	if ws := s.wal.Load(); ws != nil {
		w.Header().Set(walGenHeader, strconv.FormatUint(ws.position(), 10))
	}
}

func writeBody(w http.ResponseWriter, status int, body []byte, cacheHit bool) {
	w.Header().Set("Content-Type", "application/json")
	if cacheHit {
		w.Header().Set("X-Cache", "hit")
	}
	w.WriteHeader(status)
	w.Write(body)
}

func (s *Server) handleHealthz(st *state, r *http.Request) (int, any) {
	resp := map[string]any{
		"status":     "ok",
		"generation": st.gen,
		"nodes":      st.snap.Len(),
	}
	if st.proj != nil {
		resp["shard"] = st.proj.Shard
		resp["shards"] = st.proj.NumShards
		resp["home_nodes"] = st.proj.HomeCount
	} else {
		resp["shards"] = st.shards.NumShards()
	}
	if ws := s.wal.Load(); ws != nil {
		resp["replica"] = ws.replica
		resp["wal_gen"] = ws.position()
		resp["checkpoint_gen"] = ws.checkpointGen()
	}
	return http.StatusOK, resp
}

// shardSummary is the wire form of one shard's serving state: its
// per-shard generation plus the projection's home-node and stored-edge
// counts (a cross-shard edge is stored on both endpoint shards).
type shardSummary struct {
	Shard      int    `json:"shard"`
	Generation uint64 `json:"generation"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
}

func (s *Server) handleStats(st *state, r *http.Request) (int, any) {
	stats := st.snap.ComputeStats()
	resp := map[string]any{
		"generation":         st.gen,
		"loaded_at":          st.loadedAt.UTC().Format(time.RFC3339),
		"nodes":              st.snap.NodeCount(),
		"edges":              st.snap.EdgeCount(),
		"nodes_by_type":      stats.NodesByType,
		"edges_by_type":      stats.EdgesByType,
		"max_search_results": maxSearchResults,
	}
	if st.proj == nil {
		// Each shard's projection answers its own counts.
		shards := make([]shardSummary, st.shards.NumShards())
		for i := range shards {
			shards[i] = shardSummary{
				Shard:      i,
				Generation: st.gen,
				Nodes:      st.shards.HomeCount(i),
				Edges:      st.shards.Shard(i).EdgeCount(),
			}
		}
		resp["shards"] = shards
	} else {
		// Per-shard process: report the owned slice of the union so a
		// router can sum exact whole-world counts (home nodes partition the
		// union; every union edge is owned by exactly one shard — the home
		// of its source).
		hs := st.proj.HomeStats()
		resp["shard"] = map[string]any{
			"shard":         st.proj.Shard,
			"shards":        st.proj.NumShards,
			"generation":    st.gen,
			"nodes":         st.proj.HomeCount,
			"edges":         st.snap.EdgeCount(), // stored (incl. ghost copies)
			"owned_edges":   st.proj.OwnedEdgeCount(),
			"nodes_by_type": hs.NodesByType,
			"edges_by_type": hs.EdgesByType,
			// The home-prefix term-gram index, from which a router builds
			// its term→shard routing table (see docs/ARCHITECTURE.md).
			"term_stats": st.proj.TermStats(),
		}
	}
	return http.StatusOK, resp
}

// apiNode is the wire form of a node: like ontology.Node but with the
// type rendered as its name instead of the persisted enum value.
type apiNode struct {
	ID       ontology.NodeID `json:"id"`
	Type     string          `json:"type"`
	Phrase   string          `json:"phrase"`
	Aliases  []string        `json:"aliases,omitempty"`
	Trigger  string          `json:"trigger,omitempty"`
	Location string          `json:"location,omitempty"`
	Day      int             `json:"day,omitempty"`
}

func toAPINode(n ontology.Node) apiNode {
	return apiNode{
		ID: n.ID, Type: n.Type.String(), Phrase: n.Phrase, Aliases: n.Aliases,
		Trigger: n.Trigger, Location: n.Location, Day: n.Day,
	}
}

// nodeDetail is the /v1/node payload: the node plus its neighborhood,
// grouped by edge type.
type nodeDetail struct {
	Node      apiNode             `json:"node"`
	Parents   map[string][]string `json:"parents,omitempty"`
	Children  map[string][]string `json:"children,omitempty"`
	Ancestors []string            `json:"ancestors,omitempty"`
}

// handleNode resolves ?id= first, then ?phrase= with ?type= (canonical
// phrase before alias), then an untyped LookupAny.
func (s *Server) handleNode(st *state, r *http.Request) (int, any) {
	var node ontology.Node
	var ok bool
	switch q := r.URL.Query(); {
	case q.Get("id") != "":
		id, err := strconv.Atoi(q.Get("id"))
		if err != nil {
			return http.StatusBadRequest, errBody(codeInvalidArgument, "invalid id: "+q.Get("id"))
		}
		node, ok = st.snap.Get(ontology.NodeID(id))
	case q.Get("phrase") != "":
		phrase := q.Get("phrase")
		if ts := q.Get("type"); ts != "" {
			t, err := ontology.ParseNodeType(ts)
			if err != nil {
				return http.StatusBadRequest, errBody(codeInvalidArgument, err.Error())
			}
			node, ok = st.snap.Find(t, phrase)
			if !ok {
				if id, aok := st.snap.LookupAlias(t, phrase); aok {
					node, ok = st.snap.Get(id)
				}
			}
		} else if id, aok := st.snap.LookupAny(phrase); aok {
			node, ok = st.snap.Get(id)
		}
	default:
		return http.StatusBadRequest, errBody(codeInvalidArgument, "need ?id= or ?phrase=")
	}
	if !ok {
		return http.StatusNotFound, errBody(codeNotFound, "node not found")
	}
	d := nodeDetail{Node: toAPINode(node)}
	for et := ontology.EdgeType(0); et < ontology.NumEdgeTypes; et++ {
		for _, p := range st.snap.Parents(node.ID, et) {
			if d.Parents == nil {
				d.Parents = map[string][]string{}
			}
			d.Parents[et.String()] = append(d.Parents[et.String()], p.Phrase)
		}
		for _, c := range st.snap.Children(node.ID, et) {
			if d.Children == nil {
				d.Children = map[string][]string{}
			}
			d.Children[et.String()] = append(d.Children[et.String()], c.Phrase)
		}
	}
	for _, a := range st.snap.Ancestors(node.ID) {
		d.Ancestors = append(d.Ancestors, a.Phrase)
	}
	return http.StatusOK, d
}

func (s *Server) handleSearch(st *state, r *http.Request) (int, any) {
	p, bad, errb := parseSearchParams(r.URL.Query())
	if bad != 0 {
		return bad, errb
	}
	q, limit := p.q, p.limit
	// A whole-world server routes the needle through the per-shard
	// term-gram indexes and merges the candidate shards' match cursors in
	// union-ID order; the hits are identical to the union scan (which is
	// what runs at K=1), so ?scatter=full — the router's debugging bypass —
	// is accepted here and changes nothing. A per-shard process scans only
	// its own home-node prefix and renders union IDs — the router's merge
	// of K such responses is the same scatter-gather, stretched across
	// process boundaries.
	var results []ontology.Node
	idOf := func(n *ontology.Node) ontology.NodeID { return n.ID }
	if st.proj != nil {
		results = st.proj.SearchHome(q, limit)
		idOf = func(n *ontology.Node) ontology.NodeID { return st.proj.UnionID(n.ID) }
	} else {
		results = st.shards.Search(q, limit)
	}
	hits := make([]searchHit, 0, len(results))
	for i := range results {
		n := &results[i]
		hits = append(hits, searchHit{ID: idOf(n), Type: n.Type.String(), Phrase: n.Phrase})
	}
	if st.proj != nil {
		// The per-shard response carries the shard's generation, the
		// value X-Giant-Generation repeats (the router reads the header).
		// In-process modes omit it: their body must stay byte-identical to
		// the router's merged body.
		return http.StatusOK, map[string]any{"query": q, "count": len(hits), "results": hits, "generation": st.gen}
	}
	return http.StatusOK, map[string]any{"query": q, "count": len(hits), "results": hits}
}

// searchHit is the wire form of one /v1/search result (IDs are union IDs
// in every serving mode, which is what lets the router merge shard
// responses in union order).
type searchHit struct {
	ID     ontology.NodeID `json:"id"`
	Type   string          `json:"type"`
	Phrase string          `json:"phrase"`
}

// tagRequest is the /v1/tag input, via JSON body (POST) or query params
// (GET, entities comma-separated).
type tagRequest struct {
	Title    string   `json:"title"`
	Content  string   `json:"content"`
	Entities []string `json:"entities"`
}

type tagResult struct {
	Phrase string  `json:"phrase"`
	Type   string  `json:"type"`
	Score  float64 `json:"score"`
}

func (s *Server) handleTag(st *state, r *http.Request) (int, any) {
	if mode := r.URL.Query().Get("partial"); mode != "" {
		return st.handleTagPartial(mode, r)
	}
	doc, bad, errb := parseTagDoc(r)
	if bad != 0 {
		return bad, errb
	}
	return http.StatusOK, tagResponse(st.concepts.TagConcepts(doc), st.events.TagEvents(doc))
}

func (s *Server) handleQueryRewrite(st *state, r *http.Request) (int, any) {
	q := r.URL.Query().Get("q")
	if q == "" {
		return http.StatusBadRequest, errBody(codeInvalidArgument, "need ?q=")
	}
	if r.URL.Query().Get("partial") != "" {
		return http.StatusOK, rewritePartialBody{Partial: st.query.Partial(st.appScope(), q)}
	}
	return http.StatusOK, rewriteResponse(st.query.Analyze(q))
}

func (s *Server) handleStory(st *state, r *http.Request) (int, any) {
	q := r.URL.Query()
	if mode := q.Get("partial"); mode != "" {
		if mode != "fragments" {
			return http.StatusBadRequest, errBody(codeInvalidArgument, "invalid partial: "+mode+` (want "fragments")`)
		}
		return http.StatusOK, storyFragsBody{Events: storytree.FragmentsFromScope(st.appScope())}
	}
	seed := q.Get("seed")
	if seed == "" {
		return http.StatusBadRequest, errBody(codeInvalidArgument, "need ?seed=")
	}
	// The seed resolves like a typed /v1/node query (canonical phrase, then
	// alias), so mixed-case seeds and aliases form the same tree as the
	// event's canonical phrase and the 404 envelopes match /v1/node's.
	phrase, notFound, errb := resolveStorySeed(st.snap, seed)
	if notFound != 0 {
		return notFound, errb
	}
	tree, ok := formStory(st.storyEvents, phrase)
	if !ok {
		return http.StatusNotFound, errBody(codeNotFound, "no event %q in the ontology", seed)
	}
	return http.StatusOK, storyResponse(tree)
}

func (s *Server) handleMetrics(st *state, r *http.Request) (int, any) {
	return http.StatusOK, Metrics{
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		Generation:    st.gen,
		CacheEntries:  st.cache.len(),
		Endpoints:     s.metrics.snapshot(),
	}
}

// handleIngest refuses every direct write. A whole-world server is frozen
// and changes by restarting on a new artifact; a per-shard server changes
// only through its delta log, where a direct write would fork a replica's
// lineage from its peers'. The only writable deployment is a router with a
// delta log (giantrouter -wal) in front of per-shard replicas, possibly a
// fleet of one.
func (s *Server) handleIngest(st *state, r *http.Request) (int, any) {
	if r.Method != http.MethodPost {
		return http.StatusMethodNotAllowed, errBody(codeMethodNotAllowed, "use POST")
	}
	if s.wal.Load() != nil {
		return http.StatusServiceUnavailable, errBody(codeReadOnlyReplica,
			"replica follows a delta log and accepts no direct ingest: ingest through the router, or restart the replica")
	}
	return http.StatusServiceUnavailable, errBody(codeUnavailable,
		"this server accepts no direct ingest: restart it on a new artifact, or run a delta-log fleet (giantd -shard i/k -build -wal behind giantrouter -wal)")
}

// ingestBatch applies the batch decoded from log record rec to a
// per-shard replica and publishes the result; the replica's delta-log
// Follower is its only caller. It holds the swap lock across compute +
// publish so applies and publishes happen in the same order (readers
// never take this lock). The generation moves to rec.Gen only when
// ontology.ShardChanged says the batch changed this shard, which is then
// re-projected; an unchanged shard rebases its projection so union IDs
// stay current. Alongside the status and response it returns the delta's
// touched-shard flags (nil unless the batch applied).
func (s *Server) ingestBatch(batch delta.Batch, rec *wal.Record) (int, any, []bool) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	st := s.cur.Load()
	prev, next, d, err := s.opts.ShardIngest(batch, *rec)
	if err != nil {
		// Batch-validation failures are the client's fault; anything else
		// is an internal delta-pipeline failure and must surface as 5xx.
		if errors.Is(err, delta.ErrInvalidBatch) {
			return http.StatusUnprocessableEntity, errBody(codeInvalidBatch, "ingest: "+err.Error()), nil
		}
		return http.StatusInternalServerError, errBody(codeInternal, "ingest: "+err.Error()), nil
	}
	proj := st.proj
	touched := delta.TouchedShards(prev, d, proj.NumShards)
	var ts []int
	for i, t := range touched {
		if t {
			ts = append(ts, i)
		}
	}
	changed := ontology.ShardChanged(touched, proj.NumShards, proj.Shard)
	gen := st.gen
	if changed {
		if proj, err = ontology.Project(next, proj.Shard, proj.NumShards); err != nil {
			return http.StatusInternalServerError, errBody(codeInternal, "ingest: "+err.Error()), nil
		}
		gen = rec.Gen
	} else {
		proj = proj.Rebase(next)
	}
	s.publishShardLocked(proj, gen, rec.Gen)
	resp := map[string]any{
		"old_generation": st.gen,
		"touched_shards": ts,
		"generation":     gen,
		"shards":         []shardWriteStatus{{Shard: proj.Shard, Generation: gen, Applied: changed}},
		"shard":          proj.Shard,
		"republished":    changed,
		"home_nodes":     proj.HomeCount,
		"nodes":          proj.Snap.NodeCount(),
		"edges":          proj.Snap.EdgeCount(),
	}
	resp["delta"] = map[string]any{
		"day":        d.Day,
		"added":      len(d.Add),
		"edges":      len(d.Edges),
		"reweighted": len(d.Reweight),
		"touched":    len(d.Touch),
		"retired":    len(d.Retire),
		"seeds":      len(d.Seeds),
	}
	return http.StatusOK, resp, touched
}

// Connection limits of every daemon's HTTP server. readHeaderTimeout bounds
// how long a client may take to send its request line and headers, so a
// slowloris client cannot pin a connection; idleTimeout reaps idle
// keep-alive connections. There is deliberately no write timeout: GET
// /v1/wal?wait= long-polls for up to 120 s.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the http.Server giantd and giantrouter listen with.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Run serves handler on addr until ctx is cancelled, then shuts down
// gracefully, draining in-flight requests for up to grace.
func Run(ctx context.Context, addr string, handler http.Handler, grace time.Duration) error {
	srv := newHTTPServer(addr, handler)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	}
}
