// Package serve is the online tier of the reproduction: an HTTP server that
// exposes a built Attention Ontology the way the paper's production system
// does (§4 — document tagging, query conceptualization/rewriting, story
// trees) plus operational endpoints (stats, search, metrics, health).
//
// The server never serves from the mutable build-time *ontology.Ontology.
// It holds an immutable *ontology.Snapshot — together with the taggers, the
// query understander and a bounded LRU response cache derived from it — in
// a single atomically-swapped state pointer. Request handlers load that
// pointer once and then perform lock-free reads for the rest of the
// request; an ingest (a whole-world POST /v1/ingest, or a replica's
// delta-log apply) indexes the next snapshot off to the side and publishes
// it with one atomic store, so serving continues uninterrupted on the old
// snapshot until the new one is fully built. The retired snapshot, cache
// included, is garbage-collected once in-flight requests drain. A served
// world changes only through an ingest or a restart.
//
// Endpoints:
//
//	GET  /healthz           liveness + current generation
//	GET  /v1/stats          node/edge counts per type
//	GET  /v1/node           node detail by ?id= or ?phrase=[&type=]
//	GET  /v1/search         substring search over phrases and aliases
//	GET  /v1/tag            tag a document (?title=&content=&entities=a,b)
//	POST /v1/tag            tag a document (JSON body)
//	GET  /v1/query/rewrite  conceptualize + rewrite a query (?q=)
//	GET  /v1/story          story tree seeded at an event (?seed=)
//	GET  /v1/metrics        per-endpoint QPS/latency/cache counters
//	POST /v1/ingest         apply an incremental update batch (whole-world;
//	                        a per-shard server applies batches only from
//	                        its delta log, see replica.go)
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
)

// Options configure a Server.
type Options struct {
	// CacheSize bounds the LRU response cache each published state carries
	// (entries); 0 means DefaultCacheSize, negative disables caching.
	CacheSize int
	// IngestSharded applies an incremental update batch on a whole-world
	// server (see giant.System.IngestSharded): it returns the advanced sharded
	// snapshot, the delta and the touched-shard flags, and the server
	// republishes — and bumps the generation of — only the touched shards.
	// The shard count must match the server's (1 for New). Nil disables POST
	// /v1/ingest.
	IngestSharded func(delta.Batch) (*ontology.ShardedSnapshot, *delta.Delta, []bool, error)
	// ShardIngest is the per-shard-process analogue (servers built with
	// NewShard), and only the attached delta-log Follower calls it: a
	// per-shard server accepts no direct writes. The host applies the batch
	// through its full mining system and returns THIS shard's advanced
	// projection plus the merged delta and the touched-shard flags. The
	// server republishes — and bumps its generation — only when its own
	// shard was touched; an untouched batch still refreshes the serving
	// state (the union ID table may have shifted) without minting a new
	// generation, which is what keeps per-shard generations identical to
	// the in-process NewSharded path.
	ShardIngest func(delta.Batch) (*ontology.ShardProjection, *delta.Delta, []bool, error)
	// History bounds the retained generations /v1/stats lists under
	// "generations"; 0 means ontology.DefaultRetention.
	History int
	// ConceptContext optionally enriches concept-tagger representations
	// with the build's concept -> top clicked titles map.
	ConceptContext map[string][]string
	// ConceptContextFn, when set, supplies a fresh concept-context map for
	// every published state (so live ingest keeps tagger representations
	// current) and takes precedence over ConceptContext. It is called
	// under the swap lock, serialized with the ingest callback.
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
	// checkpoint's union snapshot and state blob and returns THIS shard's
	// projection to serve. Nil disables checkpoint boot (HydrateShard).
	CheckpointRestore func(*ontology.Snapshot, []byte) (*ontology.ShardProjection, error)
	// MaxSearchResults caps /v1/search result counts; 0 means 100.
	MaxSearchResults int
	// Story configures story-tree formation; nil means
	// storytree.DefaultOptions.
	Story *storytree.Options
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
	cache    *lruOf[[]byte]
	gen      uint64
	loadedAt time.Time
	// shards is the whole-world server's sharded view (K=1 under New) and
	// snap its union: every read answers from the union, /v1/search through
	// shards.Search, and shardGens are the per-shard generations /v1/stats
	// and write responses report. Nil on a per-shard process.
	shards    *ontology.ShardedSnapshot
	shardGens []uint64
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
	opts        Options
	cur         atomic.Pointer[state]
	store       *ontology.Store        // generation counter and retained history (/v1/stats)
	shardStores *ontology.ShardedStore // per-shard generation history (whole-world servers)
	swapMu      sync.Mutex             // serializes publishes; readers never take it
	metrics     *metricsRegistry
	mux         *http.ServeMux
	enc         storytree.Encoder
	story       storytree.Options
	shardMode   bool // built with NewShard: serves one shard projection
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
	if opts.MaxSearchResults <= 0 {
		opts.MaxSearchResults = 100
	}
	s := &Server{
		opts:    opts,
		store:   ontology.NewStore(opts.History),
		metrics: newMetricsRegistry(endpointNames),
		enc:     storytree.NewBagOfTokensEncoder(16, nil),
		story:   storytree.DefaultOptions(),
	}
	if opts.Story != nil {
		s.story = *opts.Story
	}
	return s
}

// New builds a whole-world Server over an initial snapshot: NewSharded over
// a single shard whose projection is the snapshot itself (no copy).
func New(snap *ontology.Snapshot, opts Options) *Server {
	// ShardSnapshot only fails projecting k > 1 shards.
	ss, _ := ontology.ShardSnapshot(snap, 1)
	return NewSharded(ss, opts)
}

// NewSharded builds a whole-world Server over an initial sharded snapshot.
// The process holds the union, so every read answers from it through the
// state's one response cache; the shard count only sets the unit of
// publication — the initial publish and every ingest publish per shard, each
// shard carrying its own generation history — and routes /v1/search through
// the shards' term-gram indexes (ShardedSnapshot.Search).
func NewSharded(ss *ontology.ShardedSnapshot, opts Options) *Server {
	s := newServer(opts)
	s.shardStores = ontology.NewShardedStore(ss.NumShards(), s.opts.History)
	s.swapMu.Lock()
	s.publishShardedLocked(ss, nil)
	s.swapMu.Unlock()
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
	return NewShardAt(p, 1, opts)
}

// NewShardAt builds a per-shard-process Server whose initial publish
// mints serving generation gen instead of 1 — the checkpoint-boot seam.
// Generation numbers are part of the replicated contract
// (X-Giant-Generation, cache keys, the router's cross-replica identity
// checks), so a replica hydrated from a checkpoint must resume the
// exact generation sequence a full log replay would have produced.
func NewShardAt(p *ontology.ShardProjection, gen uint64, opts Options) *Server {
	s := newServer(opts)
	s.shardMode = true
	if gen > 1 {
		// The store is freshly built and empty; seeding cannot fail.
		if err := s.store.SeedGeneration(gen - 1); err != nil {
			panic(err)
		}
	}
	s.swapMu.Lock()
	s.publishShardLocked(p, true)
	s.swapMu.Unlock()
	s.routes()
	return s
}

// publishShardedLocked publishes a sharded snapshot: shards flagged
// touched (nil = all) are pushed into their per-shard generation stores,
// the union joins the whole-world store, and the serving state swaps
// atomically. It returns the new union generation and which shards
// republished; untouched shards keep their generation — the republication
// unit is the shard, not the world. In-flight requests keep the state they
// started with. The caller holds swapMu.
//
// A shard's generation must identify its served content, so beyond the
// delta-touched shards, any shard whose incoming projection differs from
// the one serving right now also republishes. That clause is live at K=1:
// Advance re-projects every shard there, so each ingest hands over a new
// projection of the one shard whatever the delta's touched flags say.
func (s *Server) publishShardedLocked(ss *ontology.ShardedSnapshot, touched []bool) (uint64, []bool) {
	prev := s.cur.Load()
	republished := make([]bool, ss.NumShards())
	for i := range republished {
		republished[i] = touched == nil || (i < len(touched) && touched[i]) ||
			prev == nil || prev.shards.NumShards() != ss.NumShards() || prev.shards.Shard(i) != ss.Shard(i)
		if republished[i] {
			s.shardStores.Push(i, ss.Shard(i))
		}
	}
	gen := s.store.Push(ss.Union())
	st := s.buildState(ss.Union(), gen)
	st.shards = ss
	st.shardGens = s.shardStores.CurrentGens()
	s.cur.Store(st)
	return gen, republished
}

// buildState indexes one snapshot into a full serving state (taggers,
// understander, fresh cache); the caller holds swapMu.
func (s *Server) buildState(snap *ontology.Snapshot, gen uint64) *state {
	conceptCtx := s.opts.ConceptContext
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

// publishShardLocked publishes a per-shard serving state: a republish
// pushes the projection into the generation store (minting a new
// generation), while republish=false refreshes the state — fresh union-ID
// table, fresh cache — under the CURRENT generation, which is how an
// ingest that left this shard untouched keeps its generation while still
// tracking union renumbering. The caller holds swapMu.
func (s *Server) publishShardLocked(p *ontology.ShardProjection, republish bool) uint64 {
	var gen uint64
	if republish {
		gen = s.store.Push(p.Snap)
	} else if cur := s.cur.Load(); cur != nil {
		gen = cur.gen
	}
	st := s.buildState(p.Snap, gen)
	st.proj = p
	s.cur.Store(st)
	return gen
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

// Generation returns the current snapshot generation (1 for the initial
// snapshot, +1 per publish).
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
		st := s.cur.Load()
		useCache := cacheable && r.Method == http.MethodGet
		if useCache {
			if body, ok := st.cache.get(r.URL.RequestURI()); ok {
				s.setGenHeaders(w, st)
				writeBody(w, http.StatusOK, body, true)
				m.observe(http.StatusOK, time.Since(start), true)
				return
			}
		}
		status, payload := fn(st, r)
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

// genSummary is the wire form of one retained generation.
type genSummary struct {
	Generation uint64 `json:"generation"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
}

func (s *Server) generations() []genSummary {
	gens := s.store.Generations()
	out := make([]genSummary, 0, len(gens))
	for _, g := range gens {
		out = append(out, genSummary{Generation: g.Gen, Nodes: g.Nodes, Edges: g.Edges})
	}
	return out
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
		"generations":        s.generations(),
		"max_search_results": s.opts.MaxSearchResults,
	}
	if st.proj == nil {
		// Each shard's projection answers its own counts.
		shards := make([]shardSummary, st.shards.NumShards())
		for i := range shards {
			shards[i] = shardSummary{
				Shard:      i,
				Generation: st.shardGens[i],
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
	p, bad, errb := parseSearchParams(r.URL.Query(), s.opts.MaxSearchResults)
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
		return http.StatusOK, rewritePartialBody{Generation: st.gen, Partial: st.query.Partial(st.appScope(), q)}
	}
	return http.StatusOK, rewriteResponse(st.query.Analyze(q))
}

func (s *Server) handleStory(st *state, r *http.Request) (int, any) {
	q := r.URL.Query()
	if mode := q.Get("partial"); mode != "" {
		if mode != "fragments" {
			return http.StatusBadRequest, errBody(codeInvalidArgument, "invalid partial: "+mode+` (want "fragments")`)
		}
		return http.StatusOK, storyFragsBody{Generation: st.gen, Events: storytree.FragmentsFromScope(st.appScope())}
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
	tree, ok := storytree.FormFromEvents(st.storyEvents, phrase, s.enc, s.story)
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

// writeStatusRows renders a whole-world server's per-shard write-status
// rows from the current per-shard generations; applied[i]=false marks a
// shard the write left untouched (nil marks every shard applied).
func (s *Server) writeStatusRows(applied []bool) []shardWriteStatus {
	gens := s.shardStores.CurrentGens()
	rows := make([]shardWriteStatus, len(gens))
	for i := range rows {
		rows[i] = shardWriteStatus{Shard: i, Generation: gens[i], Applied: applied == nil || (i < len(applied) && applied[i])}
	}
	return rows
}

// handleIngest applies an incremental update batch: the request body is a
// delta.Batch (new docs + clicks); the host's ingest callback delta-mines
// it into the next generation, which hot-swaps in atomically. In-flight
// readers keep the generation they started on.
func (s *Server) handleIngest(st *state, r *http.Request) (int, any) {
	if r.Method != http.MethodPost {
		return http.StatusMethodNotAllowed, errBody(codeMethodNotAllowed, "use POST")
	}
	if s.shardMode {
		return s.refuseShardWrite()
	}
	if s.opts.IngestSharded == nil {
		return http.StatusServiceUnavailable, errBody(codeUnavailable, "no ingester configured (run giantd with -build)")
	}
	var batch delta.Batch
	if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
		return bodyError("decode batch", err)
	}
	status, resp, _ := s.ingestBatch(batch)
	return status, resp
}

// refuseShardWrite answers a direct POST /v1/ingest to a per-shard server:
// a fleet changes only through its delta log. A replica applies batches
// from the log alone, where a direct write would fork its lineage from its
// peers'; a frozen shard changes by restarting on a new file.
func (s *Server) refuseShardWrite() (int, any) {
	if s.wal.Load() != nil {
		return http.StatusServiceUnavailable, errBody(codeReadOnlyReplica,
			"replica follows a delta log and accepts no direct ingest: ingest through the router, or restart the replica")
	}
	return http.StatusServiceUnavailable, errBody(codeUnavailable,
		"a per-shard server accepts no direct ingest: restart it on a new shard file, or run a delta-log fleet (giantd -wal behind giantrouter -wal)")
}

// ingestBatch applies one decoded batch and publishes the result — the
// shared core of a whole-world server's POST /v1/ingest and a per-shard
// replica's delta-log Follower. It holds the swap lock across compute + publish
// so concurrent ingests apply and publish in the same order (readers
// never take this lock). Alongside the status and response it returns
// the delta's touched-shard flags (nil unless the batch applied).
func (s *Server) ingestBatch(batch delta.Batch) (int, any, []bool) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	st := s.cur.Load()
	var (
		d       *delta.Delta
		touched []bool
		err     error
		sharded *ontology.ShardedSnapshot
		proj    *ontology.ShardProjection
	)
	if s.shardMode {
		proj, d, touched, err = s.opts.ShardIngest(batch)
	} else {
		sharded, d, touched, err = s.opts.IngestSharded(batch)
	}
	if err != nil {
		// Batch-validation failures are the client's fault; anything else
		// is an internal delta-pipeline failure and must surface as 5xx.
		if errors.Is(err, delta.ErrInvalidBatch) {
			return http.StatusUnprocessableEntity, errBody(codeInvalidBatch, "ingest: "+err.Error()), nil
		}
		return http.StatusInternalServerError, errBody(codeInternal, "ingest: "+err.Error()), nil
	}
	var ts []int
	for i, t := range touched {
		if t {
			ts = append(ts, i)
		}
	}
	resp := map[string]any{"old_generation": st.gen, "touched_shards": ts}
	var snap *ontology.Snapshot
	if proj != nil {
		// Per-shard process: republish — and mint a generation — only when
		// the delta touched this shard (or the served projection diverged
		// from the one serving right now); an untouched ingest still
		// refreshes the state so union IDs stay current, keeping responses
		// identical to the in-process path.
		snap = proj.Snap
		republished := touched == nil ||
			(proj.Shard < len(touched) && touched[proj.Shard]) ||
			st.proj == nil || st.proj.Snap != proj.Snap
		gen := s.publishShardLocked(proj, republished)
		resp["generation"] = gen
		resp["shards"] = []shardWriteStatus{{Shard: proj.Shard, Generation: gen, Applied: republished}}
		resp["shard"] = proj.Shard
		resp["republished"] = republished
		resp["home_nodes"] = proj.HomeCount
	} else {
		// Whole world: republish only the shards the delta touched;
		// untouched shards keep their projection and their generation.
		snap = sharded.Union()
		gen, applied := s.publishShardedLocked(sharded, touched)
		resp["generation"] = gen
		resp["shards"] = s.writeStatusRows(applied)
		resp["shard_generations"] = s.shardStores.CurrentGens()
	}
	resp["nodes"] = snap.NodeCount()
	resp["edges"] = snap.EdgeCount()
	if d != nil {
		resp["delta"] = map[string]any{
			"day":        d.Day,
			"added":      len(d.Add),
			"edges":      len(d.Edges),
			"reweighted": len(d.Reweight),
			"touched":    len(d.Touch),
			"retired":    len(d.Retire),
			"seeds":      len(d.Seeds),
		}
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
