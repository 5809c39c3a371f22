package serve

// Router is the multi-process scatter-gather tier: a thin HTTP daemon
// (cmd/giantrouter) that fans requests out over K per-shard giantd
// backends, one per ontology.ShardedSnapshot projection, speaking the same
// ontology.HomeShard phrase hash the in-process sharded server uses.
//
// The contract mirrors PR 4's determinism guarantee across process
// boundaries: for /v1/search, /v1/node, /v1/tag, /v1/query/rewrite and
// /v1/story, the router's merged responses are byte-identical to a
// single-process server over the same world, for every shard count
// (router_test.go and application_equivalence_test.go pin this for
// K ∈ {1, 2, 4} through a day-by-day ingest replay).
//
//	/v1/search         routed fan-out: a generation-stamped term→shard
//	                   routing index (rebuilt from each backend's
//	                   /v1/stats term grams) prunes the scatter to the
//	                   shards that can match; merge the consulted shards'
//	                   partials in union node-ID order, truncate.
//	                   ?scatter=full bypasses routing (debug /
//	                   equivalence diffing).
//	/v1/node           route by HomeShard(type, phrase) when the request
//	                   names both; otherwise scatter and pick the union's
//	                   lookup-precedence winner (phrase beats alias, then
//	                   NodeType order, then union ID). The transitive IsA
//	                   ancestor chain is assembled by walking each
//	                   parent's home shard level by level.
//	/v1/stats          fan-out; per-shard generations listed verbatim,
//	                   whole-world counts from each shard's owned slice
//	/v1/metrics        fan-out; router's own counters plus per-backend
//	/v1/ingest         appended once to the fleet's delta log, acked at a
//	                   replica quorum (RouterOptions.WALDir); a router
//	                   without a log is read-only and answers 503
//	/v1/tag            scatter-gather: per-shard ?partial=match candidate
//	                   sets (pruned by the same term-gram routing index as
//	                   search) are merged and scored against a router-held
//	                   concept index built from every shard's
//	                   ?partial=stats concepts
//	/v1/query/rewrite  scatter-gather over ?partial=1 rewrite partials,
//	                   keyed by the NORMALIZED query (lowercased token
//	                   join) for routing, folded by
//	                   queryund.Merge at the router
//	/v1/story          the seed resolves exactly like a typed /v1/node
//	                   lookup (home-shard fast path, alias scatter), then
//	                   the tree forms at the router from the merged
//	                   per-shard ?partial=fragments event lists
//
// Every fan-out read — /v1/search, /v1/stats, /v1/tag, /v1/query/rewrite,
// /v1/story and scattered /v1/node lookups — runs through one loop,
// scatterFold, with one staleness rule and one degraded-mode policy
// (RouterOptions.FailOpen): when a backend is unreachable, the read either
// fails closed with 503 or returns the reachable shards' results marked
// "partial": true. A backend that answers with a body that does not decode
// is broken, not missing: 502 bad_upstream naming its shard. A typed
// /v1/node lookup answers 502 when the one home shard that could hold its
// phrase is unreachable, and ingest is always fail-closed.
//
// A fleet changes only through its one delta log. Without WALDir the
// router fronts a frozen fleet (giantd -shard i/k -in), which changes by
// restarting its backends on new files, and refuses every write.
//
// With RouterOptions.Replicas + WALDir the router serves each shard from
// a replica set over an append-only delta log (internal/wal): reads pick
// a replica by power-of-two-choices among the healthy replicas that have
// applied the shard's newest known log generation (a replica still
// tailing is never consulted for reads ahead of its position), and
// /v1/ingest appends the batch once to the fleet's one log, which every
// replica of every shard tails, acking once a quorum (⌈N/2⌉) of each
// shard's replicas confirm the apply — replicas left behind catch up from
// the log alone, and a shard whose slowest healthy replica trails the
// head by more than MaxLag pushes back with 429 replica_lagging +
// Retry-After.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"giant/internal/delta"
	"giant/internal/ontology"
	"giant/internal/par"
	"giant/internal/wal"
)

// RouterOptions configure a Router.
type RouterOptions struct {
	// Backends are the per-shard giantd base URLs, in shard order:
	// Backends[i] must serve shard i of len(Backends). Shorthand for a
	// Replicas value with one replica per shard; ignored when Replicas is
	// set.
	Backends []string
	// Replicas are the per-shard replica sets, in shard order: every URL
	// in Replicas[i] must serve shard i of len(Replicas). Any shard with
	// more than one replica requires WALDir — interchangeable replicas
	// exist only by tailing the same delta log.
	Replicas [][]string
	// WALDir, when set, enables /v1/ingest: each batch is appended once to
	// the fleet's wal.Log in this directory (fleet.wal) and acknowledged
	// once a quorum of each shard's replicas confirm the apply through GET
	// /v1/wal. Backends must then be log-tailing replicas (giantd -wal).
	// Without it the router is read-only.
	WALDir string
	// MaxLag bounds, per shard, how many delta-log generations the slowest
	// healthy replica may trail the log head before ingest pushes back
	// with 429 replica_lagging; 0 means 64.
	MaxLag uint64
	// Client overrides the HTTP client used for backend calls; nil builds
	// a dedicated one whose idle connections Close releases.
	Client *http.Client
	// Timeout bounds each backend read call; 0 means 5s.
	Timeout time.Duration
	// WriteTimeout bounds each replica's apply confirmation in the ingest
	// quorum wait: how long a replica may take to tail and apply one
	// batch, which mines the affected click-graph neighbourhood (or waits
	// for the replica that does) and can far exceed the read timeout. 0
	// means 2m.
	WriteTimeout time.Duration
	// FailOpen selects the degraded-mode policy for fan-out reads: false
	// (the default) fails closed with 503 when any shard is unreachable,
	// true returns the reachable shards' results with "partial": true.
	FailOpen bool
	// ProbeInterval enables a background health prober hitting every
	// backend's /healthz; 0 disables it (health marks still update on
	// every proxied call).
	ProbeInterval time.Duration
	// Compact, on a delta-log fleet, lets the prober truncate the log
	// below the fleet-wide applied floor after every probe pass. The cut
	// is additionally bounded by the covered position of the published
	// checkpoint, so a replica that died before the floor moved can still
	// rejoin: everything below the cut is recoverable from the artifact.
	// Requires ProbeInterval > 0 to run automatically.
	Compact bool
	// Logf, when set, receives operational log lines — most usefully the
	// backend health transitions ("shard 1 down: ...", "shard 1
	// recovered") detected by traffic and the prober. Nil disables.
	Logf func(format string, args ...any)
}

// replicaState is one backend process's routing state: its health mark
// (updated by every proxied call and by the prober; transitions are
// logged through Options.Logf) and, on a delta-log fleet, the last log
// generation it is known to have applied — reported by the replica on
// every response via the X-Giant-Wal-Gen header. A replica marked down
// has its applied position reset to zero: a dead process's position is
// unknown, so it re-enters read rotation only after a probe observes it
// back at the shard's head generation.
type replicaState struct {
	shard    int
	idx      int // replica ordinal within the shard
	url      string
	down     atomic.Bool
	applied  atomic.Uint64
	inflight atomic.Int64 // in-flight proxied calls, for power-of-two-choices
}

// Router fans requests out over per-shard backends.
type Router struct {
	opts    RouterOptions
	k       int
	client  *http.Client
	mux     *http.ServeMux
	metrics *metricsRegistry
	// shards[i] holds shard i's replica set (length 1 for a plain
	// Backends deployment).
	shards [][]*replicaState
	// log is the fleet's one delta log on a delta-log fleet (nil
	// otherwise): every batch is appended once, and every replica of
	// every shard tails it.
	log *wal.Log
	// rr rotates the starting replica of each read, so power-of-two-
	// choices samples a moving pair instead of a fixed one.
	rr atomic.Uint64
	// ingestMu serializes ingests, so the backpressure check, the append
	// and the quorum wait of one batch never interleave with another's.
	ingestMu sync.Mutex
	stop     chan struct{}
	stopOnce sync.Once
	probeWG  sync.WaitGroup
	// The router memoizes exactly three fleet-wide folds, each lazily
	// rebuilt by a fan-out and all dropped together by invalidate, which
	// bumps epoch: routing, the term→shard routing index (from /v1/stats
	// term grams), and tagIdx / frags, the merged concept index and
	// story-fragment list (from full ?partial=stats / ?partial=fragments
	// fan-outs). A degraded tagIdx / frags build (missing shards under
	// fail-open) is never stored.
	epoch   atomic.Uint64
	routing memo[routingIndex]
	tagIdx  memo[routerTagIndex]
	frags   memo[routerFragments]
}

// genVec is a per-shard generation vector: gens[i] is the serving
// generation shard i answered at, meaningful only where ok[i]. Every memo
// embeds the vector of the fan-out that built it.
type genVec struct {
	gens []uint64
	ok   []bool
}

func newGenVec(k int) genVec { return genVec{gens: make([]uint64, k), ok: make([]bool, k)} }

// routingIndex is the router's term→shard posting index: per-shard term
// grams to prune the scatter. A shard without grams (it failed to answer
// the stats fan-out) routes conservatively: it is always consulted.
// Immutable once published.
type routingIndex struct {
	genVec
	grams []*ontology.TermGrams
}

// memo is one fleet-wide fold the router keeps between requests, valid
// only at the epoch its build started under: invalidate bumps the epoch,
// which drops every memo at once, and a build that straddles a bump is
// returned to its caller but never stored. (A bump that lands between
// that check and the store leaves an entry stamped with the old epoch,
// which load never returns.)
type memo[T any] struct {
	mu  sync.Mutex // serializes rebuilds; readers never take it
	cur atomic.Pointer[memoEntry[T]]
}

type memoEntry[T any] struct {
	epoch uint64
	val   *T
}

func (m *memo[T]) load(epoch uint64) *T {
	if e := m.cur.Load(); e != nil && e.epoch == epoch {
		return e.val
	}
	return nil
}

// get returns the memo valid at the current epoch, running build when
// there is none. A build that fails or misses shards is returned but not
// kept.
func (m *memo[T]) get(epoch *atomic.Uint64, build func() (*T, []int, int, any)) (*T, []int, int, any) {
	if v := m.load(epoch.Load()); v != nil {
		return v, nil, 0, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e := epoch.Load()
	if v := m.load(e); v != nil {
		return v, nil, 0, nil
	}
	v, failed, status, errb := build()
	if status == 0 && len(failed) == 0 && epoch.Load() == e {
		m.cur.Store(&memoEntry[T]{epoch: e, val: v})
	}
	return v, failed, status, errb
}

var routerEndpointNames = []string{
	"healthz", "stats", "node", "search", "tag", "query_rewrite", "story", "metrics", "ingest",
}

// NewRouter builds a Router over the given per-shard backends (or
// replica sets).
func NewRouter(opts RouterOptions) (*Router, error) {
	sets := opts.Replicas
	if len(sets) == 0 {
		sets = make([][]string, len(opts.Backends))
		for i, b := range opts.Backends {
			sets[i] = []string{b}
		}
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one backend")
	}
	k := len(sets)
	replicated := false
	for i, reps := range sets {
		if len(reps) == 0 {
			return nil, fmt.Errorf("serve: shard %d has no replicas", i)
		}
		if len(reps) > 1 {
			replicated = true
		}
		for ri, b := range reps {
			u, err := url.Parse(b)
			if err != nil || u.Scheme == "" || u.Host == "" {
				return nil, fmt.Errorf("serve: shard %d replica %d: invalid URL %q", i, ri, b)
			}
		}
	}
	if replicated && opts.WALDir == "" {
		return nil, fmt.Errorf("serve: replicated shards need a delta log (set WALDir)")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = 2 * time.Minute
	}
	if opts.MaxLag == 0 {
		opts.MaxLag = 64
	}
	rt := &Router{
		opts:    opts,
		k:       k,
		client:  opts.Client,
		metrics: newMetricsRegistry(routerEndpointNames),
		shards:  make([][]*replicaState, k),
		stop:    make(chan struct{}),
	}
	for i, reps := range sets {
		rt.shards[i] = make([]*replicaState, len(reps))
		for ri, b := range reps {
			rt.shards[i][ri] = &replicaState{shard: i, idx: ri, url: strings.TrimRight(b, "/")}
		}
	}
	if opts.WALDir != "" {
		// The fleet log carries the unsharded stream: every replica of
		// every shard applies every batch.
		lg, err := wal.Open(wal.LogPath(opts.WALDir), 0, 1)
		if err != nil {
			return nil, fmt.Errorf("serve: delta log: %w", err)
		}
		rt.log = lg
	}
	if rt.client == nil {
		rt.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	}
	rt.routes()
	if opts.ProbeInterval > 0 {
		rt.probeWG.Add(1)
		go rt.probeLoop()
	}
	return rt, nil
}

// walMode reports whether ingest flows through the fleet's delta log.
func (rt *Router) walMode() bool { return rt.log != nil }

// allReplicas flattens the fleet in (shard, replica) order.
func (rt *Router) allReplicas() []*replicaState {
	var out []*replicaState
	for _, reps := range rt.shards {
		out = append(out, reps...)
	}
	return out
}

// NumShards returns the backend (= shard) count.
func (rt *Router) NumShards() int { return rt.k }

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the background prober, closes the delta log and releases
// idle backend connections. The router must not be used afterwards.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.probeWG.Wait()
	if rt.log != nil {
		rt.log.Close()
	}
	rt.client.CloseIdleConnections()
}

// workers resolves the fan-out pool size: min(shards, GOMAXPROCS).
func (rt *Router) workers() int {
	if n := runtime.GOMAXPROCS(0); n < rt.k {
		return n
	}
	return rt.k
}

// probeLoop keeps the health marks fresh while traffic is idle, and
// cross-checks each backend's /healthz generation against the routing
// index: a discrepancy means the fleet changed behind the router's back
// (an out-of-band write, or a backend restarted into a different world),
// so every memo is dropped.
func (rt *Router) probeLoop() {
	defer rt.probeWG.Done()
	ticker := time.NewTicker(rt.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
		}
		// Probe every replica: callReplica refreshes the health mark and
		// applied log position of each, which is also the only way a
		// restarted replica re-enters read rotation — its probe reports it
		// back at the shard's head generation. The generation cross-check
		// below uses one representative at-gate response per shard, so a
		// replica still tailing its way back never masquerades as a fleet
		// change.
		results := make([]backendResult, rt.k)
		par.ForEachIndexed(rt.workers(), rt.k, func(i int) {
			reps := rt.shards[i]
			probes := make([]backendResult, len(reps))
			for j, rep := range reps {
				probes[j] = rt.callReplica(context.Background(), rt.opts.Timeout, rep, http.MethodGet, "/healthz", nil)
			}
			var gate uint64
			for _, rep := range reps {
				if g := rep.applied.Load(); g > gate {
					gate = g
				}
			}
			for j, rep := range reps {
				if probes[j].ok() && rep.applied.Load() >= gate {
					results[i] = probes[j]
					break
				}
			}
		})
		if idx := rt.routing.load(rt.epoch.Load()); idx != nil {
			for i := range results {
				// A shard with no at-gate answer has no generation to check.
				if gen, ok := results[i].generation(); ok && (!idx.ok[i] || idx.gens[i] != gen) {
					// Either the backend recovered since the index was built
					// (re-index to regain pruning) or its generation moved
					// without a routed write (every memo is stale).
					rt.invalidate()
					break
				}
			}
		}
		// Compaction rides the probe pass: it needs exactly the applied
		// positions the probes just refreshed, routing index or not.
		if rt.opts.Compact {
			rt.compactOnce()
		}
	}
}

// appliedFloor returns the minimum applied log generation across shard
// s's HEALTHY replicas — the position every reader the router would
// route to has provably passed. ok=false when no replica is healthy
// (a dead fleet has no known floor; nothing may be dropped).
func (rt *Router) appliedFloor(s int) (floor uint64, ok bool) {
	for _, rep := range rt.shards[s] {
		if rep.down.Load() {
			continue
		}
		g := rep.applied.Load()
		if !ok || g < floor {
			floor, ok = g, true
		}
	}
	return floor, ok
}

// checkpointFloor returns the log position covered by the fleet's
// published checkpoint (0 when none exists, it is unusable, or it was
// written for another shard count — no replica here could hydrate it).
func (rt *Router) checkpointFloor() uint64 {
	meta, err := wal.ReadCheckpointMeta(wal.CheckpointPath(rt.opts.WALDir))
	if err != nil || len(meta.ServingGens) != rt.k {
		return 0
	}
	return meta.WALGen
}

// compactOnce truncates the fleet's delta log below min(applied floor
// over the healthy replicas of every shard, published checkpoint's
// covered position). The checkpoint bound is what makes the cut safe for
// replicas the floor does not see (down, or not yet started): any record
// below it is covered by a durable artifact they can hydrate. No cut is
// made while some shard has no healthy replica, nor once an append has
// failed (only a restart settles the log then). Run by the prober when
// RouterOptions.Compact is set.
func (rt *Router) compactOnce() {
	if !rt.walMode() || rt.log.Err() != nil {
		return
	}
	floor := rt.checkpointFloor()
	for s := range rt.shards {
		applied, ok := rt.appliedFloor(s)
		if !ok {
			return
		}
		floor = min(floor, applied)
	}
	if floor <= rt.log.BaseGen() {
		return
	}
	if err := rt.log.TruncateBelow(floor); err != nil {
		if rt.opts.Logf != nil {
			rt.opts.Logf("wal: truncating the log below %d: %v", floor, err)
		}
		return
	}
	if rt.opts.Logf != nil {
		rt.opts.Logf("wal: log truncated below generation %d (head %d)", floor, rt.log.Head())
	}
}

// walShardStatus is the wire form of one shard's row of the delta-log
// state in the router's /healthz and /v1/stats: the fleet's head, base and
// checkpoint position, and the shard's own applied floor.
type walShardStatus struct {
	Shard         int    `json:"shard"`
	Head          uint64 `json:"head"`
	Base          uint64 `json:"base"`
	AppliedFloor  uint64 `json:"applied_floor"`
	CheckpointGen uint64 `json:"checkpoint_gen"`
}

// walStatus summarizes the log head, truncation base and
// published-checkpoint position, with every shard's applied floor.
func (rt *Router) walStatus() []walShardStatus {
	out := make([]walShardStatus, rt.k)
	head, base, ckpt := rt.log.Head(), rt.log.BaseGen(), rt.checkpointFloor()
	for s := range out {
		floor, _ := rt.appliedFloor(s)
		out[s] = walShardStatus{Shard: s, Head: head, Base: base, AppliedFloor: floor, CheckpointGen: ckpt}
	}
	return out
}

// invalidate drops all three memos — the routing index, the merged
// concept index and the merged fragment list — so the next read rebuilds
// each from the fleet. Every fold spans every shard, so any change to any
// shard stales all of them; there is no finer rule. Callers: any write
// the fleet did not uniformly reject with a 4xx, prober drift, and
// scatterFold, when a read observes a backend generation diverging from a
// memo's.
func (rt *Router) invalidate() { rt.epoch.Add(1) }

// invalidateAfterWrite applies the one invalidation rule to an ingest's
// merged outcome: a uniform 4xx rejection changed nothing, anything else
// (applied, unconfirmed, diverged) drops every memo.
func (rt *Router) invalidateAfterWrite(status int) {
	if status < 400 || status >= 500 {
		rt.invalidate()
	}
}

// ensureRouting returns the current routing index, rebuilding it from a
// /v1/stats fan-out when absent, and pins it on meta. A backend that fails
// to answer gets no grams and is consulted on every routed read, so a
// partial rebuild degrades pruning, not correctness — the one memo build
// that never fails a read.
func (rt *Router) ensureRouting(ctx context.Context, meta *respMeta) *routingIndex {
	idx, _, _, _ := rt.routing.get(&rt.epoch, func() (*routingIndex, []int, int, any) {
		results := rt.scatter(ctx, nil, rt.allShards(), http.MethodGet, "/v1/stats", nil)
		idx := &routingIndex{genVec: newGenVec(rt.k), grams: make([]*ontology.TermGrams, rt.k)}
		for i := range results {
			var parsed struct {
				Shard *struct {
					TermStats *ontology.TermStats `json:"term_stats"`
				} `json:"shard"`
			}
			if !results[i].ok() || json.Unmarshal(results[i].body, &parsed) != nil || parsed.Shard == nil {
				continue
			}
			idx.gens[i], idx.ok[i] = results[i].generation()
			if parsed.Shard.TermStats != nil {
				idx.grams[i], _ = ontology.DecodeTermGrams(parsed.Shard.TermStats.Grams)
			}
		}
		return idx, nil, 0, nil
	})
	meta.pin(&idx.genVec)
	return idx
}

// backendResult is one backend call's outcome.
type backendResult struct {
	status int
	body   []byte
	gen    string // the backend's X-Giant-Generation response header
	err    error
}

func (br *backendResult) ok() bool { return br.err == nil && br.status == http.StatusOK }

// generation parses the serving generation the backend stamped on its
// answer (X-Giant-Generation); ok is false when there is none.
func (br *backendResult) generation() (gen uint64, ok bool) {
	gen, err := strconv.ParseUint(br.gen, 10, 64)
	return gen, err == nil
}

// maxUpstreamBytes bounds every backend response body the router reads, so
// one misbehaving backend cannot make it allocate without limit; a longer
// body fails the call like a torn read. The largest upstream body the
// serve tests and the routed_ingest benchmark workload produce is a
// /v1/stats term-gram export of 22,560 bytes, so 16 MiB leaves about 700x
// headroom.
const maxUpstreamBytes = 16 << 20

// call performs one backend read under the read timeout, failing over on
// transport errors and 5xx to each replica at most once. Every attempt
// takes the best untried replica readOrder ranks at that moment: the read
// gate moves while a call is in flight, and a ranking taken once per call
// (say mid-ingest, when one replica alone has confirmed the newest
// record) can name only a replica that stops before the call reaches it,
// while its peers pass the gate.
func (rt *Router) call(ctx context.Context, shard int, method, pathAndQuery string, body []byte) backendResult {
	var last backendResult
	var failed []*replicaState
	for {
		var rep *replicaState
		for _, r := range rt.readOrder(shard) {
			if !slices.Contains(failed, r) {
				rep = r
				break
			}
		}
		if rep == nil {
			return last
		}
		last = rt.callReplica(ctx, rt.opts.Timeout, rep, method, pathAndQuery, body)
		if last.err == nil && last.status < 500 {
			// Any answered status below 500 is authoritative — a 404 is a
			// node miss every replica of the shard would repeat, not a
			// reason to fail over.
			return last
		}
		if ctx.Err() != nil {
			return last
		}
		failed = append(failed, rep)
	}
}

// callReplica performs one HTTP call against one replica, updating its
// health mark from the transport outcome and its applied log position
// from the X-Giant-Wal-Gen response header.
func (rt *Router) callReplica(ctx context.Context, timeout time.Duration, rep *replicaState, method, pathAndQuery string, body []byte) backendResult {
	var res backendResult
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	sentAt := rep.applied.Load()
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.url+pathAndQuery, rd)
	if err != nil {
		res.err = err
		return res
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		res.err = fmt.Errorf("shard %d: %w", rep.shard, err)
		rt.markDown(rep, res.err)
		return res
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	res.gen = resp.Header.Get(genHeader)
	if wg := resp.Header.Get(walGenHeader); wg != "" {
		if g, perr := strconv.ParseUint(wg, 10, 64); perr == nil {
			rep.observeApplied(sentAt, g)
		}
	}
	res.body, res.err = io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBytes+1))
	if res.err == nil && len(res.body) > maxUpstreamBytes {
		// A torn read, as far as the router is concerned: the backend is
		// misbehaving, and its answer must not be merged.
		res.body, res.err = nil, fmt.Errorf("shard %d: response body exceeds %d bytes", rep.shard, maxUpstreamBytes)
	}
	switch {
	case res.err != nil:
		rt.markDown(rep, res.err)
	case res.status >= 500:
		// Reachable but unhealthy counts as down — the same judgement the
		// fan-out merges apply — so the transition log can't claim a
		// recovery for a backend that restarts into a broken state.
		rt.markDown(rep, fmt.Errorf("status %d", res.status))
	default:
		rt.markUp(rep)
	}
	return res
}

// observeApplied folds the log position g one response reported into the
// replica's mark; sentAt is the mark read before that request was sent.
// Concurrent calls finish in any order and a live process's position never
// decreases, so a response only raises the mark — an older response landing
// after a newer one must not make the replica look behind the read gate.
// The one report that lowers it is g < sentAt: a position below what the
// replica had already reported before the request left proves it restarted
// (with no failed call in between to reset the mark), and the gate must
// stop trusting the old high-water mark.
func (rep *replicaState) observeApplied(sentAt, g uint64) {
	if g < sentAt && rep.applied.CompareAndSwap(sentAt, g) {
		return
	}
	for cur := rep.applied.Load(); g > cur; cur = rep.applied.Load() {
		if rep.applied.CompareAndSwap(cur, g) {
			return
		}
	}
}

// readOrder ranks one shard's replicas for a read. The gate is the
// highest applied log position any replica has reported: a replica
// behind it is still tailing and is never consulted — a read must not
// travel back in time just because it landed on a catching-up process.
// At-gate healthy replicas come first, ordered by power-of-two-choices
// over a rotating pair (fewest in-flight calls wins); at-gate down
// replicas follow, so traffic keeps probing a single-replica shard back
// to recovery exactly as it did before replica sets existed.
func (rt *Router) readOrder(shard int) []*replicaState {
	reps := rt.shards[shard]
	if len(reps) == 1 {
		return reps
	}
	applied := make([]uint64, len(reps))
	var gate uint64
	for i, rep := range reps {
		applied[i] = rep.applied.Load()
		if applied[i] > gate {
			gate = applied[i]
		}
	}
	var healthy, lagged []*replicaState
	for i, rep := range reps {
		if applied[i] < gate {
			continue
		}
		if rep.down.Load() {
			lagged = append(lagged, rep)
		} else {
			healthy = append(healthy, rep)
		}
	}
	order := make([]*replicaState, 0, len(healthy)+len(lagged))
	if n := len(healthy); n > 0 {
		c := int(rt.rr.Add(1) % uint64(n))
		first := healthy[c]
		if n > 1 {
			second := healthy[(c+1)%n]
			if second.inflight.Load() < first.inflight.Load() {
				first, second = second, first
			}
			order = append(order, first, second)
			for i := 2; i < n; i++ {
				order = append(order, healthy[(c+i)%n])
			}
		} else {
			order = append(order, first)
		}
	}
	return append(order, lagged...)
}

// markDown / markUp flip a replica's health mark, logging the transition
// (and only the transition) through Options.Logf.
func (rt *Router) markDown(rep *replicaState, cause error) {
	if !rep.down.Swap(true) {
		// A dead replica's log position is unknown (it may restart empty):
		// reset it so the read gate never trusts a stale high-water mark.
		// The prober re-admits the replica once its /healthz reports the
		// shard's head position again.
		rep.applied.Store(0)
		if rt.opts.Logf != nil {
			if len(rt.shards[rep.shard]) > 1 {
				rt.opts.Logf("shard %d replica %d down: %v", rep.shard, rep.idx, cause)
			} else {
				rt.opts.Logf("shard %d down: %v", rep.shard, cause)
			}
		}
	}
}

func (rt *Router) markUp(rep *replicaState) {
	if rep.down.Swap(false) && rt.opts.Logf != nil {
		if len(rt.shards[rep.shard]) > 1 {
			rt.opts.Logf("shard %d replica %d recovered", rep.shard, rep.idx)
		} else {
			rt.opts.Logf("shard %d recovered", rep.shard)
		}
	}
}

// scatter calls the listed shards concurrently on a bounded worker pool
// and returns their results in list order, noting each answered shard's
// generation on meta (nil skips noting).
func (rt *Router) scatter(ctx context.Context, meta *respMeta, shards []int, method, pathAndQuery string, body []byte) []backendResult {
	out := make([]backendResult, len(shards))
	par.ForEachIndexed(rt.workers(), len(shards), func(j int) {
		out[j] = rt.call(ctx, shards[j], method, pathAndQuery, body)
		if meta != nil && out[j].err == nil {
			meta.noteGen(shards[j], out[j].gen)
		}
	})
	return out
}

// allShards lists every shard index in order.
func (rt *Router) allShards() []int {
	out := make([]int, rt.k)
	for i := range out {
		out[i] = i
	}
	return out
}

// read describes one routed read for scatterFold: what to ask, whom, and
// how to decode one shard's answer.
type read[P any] struct {
	name, part   string // the read in its churn 502 ("tag"); one answer in its bad-body 502 ("tag partial")
	method, path string // method "" is GET, as in net/http
	body         []byte
	shards       []int // the shards to ask, in order; nil asks every shard
	// route prunes the first attempt to the shards whose routing-index
	// grams may hold one of needles; the retry asks every shard.
	route   bool
	needles []string
	// memos ensures (and pins on meta) the memos each attempt reads
	// through, returning the shards their builds missed.
	memos func() (failed []int, status int, errb any)
	// decode turns one answer into a part: ok=false counts the shard as
	// failed, an error is a 502 naming it. Nil decodes a 200 body as JSON
	// and fails every other status.
	decode func(status int, body []byte) (p P, ok bool, err error)
}

// gathered is what scatterFold hands a read's fold.
type gathered[P any] struct {
	parts  []P    // one per asked shard, in order; the zero P where it failed
	gens   genVec // the generation each answering shard reported
	failed []int  // failed shards, ascending, the memo builds' included
}

// scatterFold runs one routed read: it ensures the read's memos, scatters
// to its shards, decodes every answer, and applies the router's two
// fleet-wide rules. Staleness: a read is stale when a shard it heard from
// answered at a generation other than a memo it read through recorded for
// that shard (respMeta.endAttempt); every memo is then dropped and the
// read runs once more, and a second stale attempt is a 502. Degradation:
// a failed shard fails the read closed with 503, or, under FailOpen, is
// listed for markPartial; a shard whose answer does not decode is a 502
// naming it. A non-zero status aborts the read.
func scatterFold[P any](rt *Router, ctx context.Context, meta *respMeta, rd read[P]) (g gathered[P], status int, errb any) {
	decode := rd.decode
	if decode == nil {
		decode = func(status int, body []byte) (p P, ok bool, err error) {
			if status != http.StatusOK {
				return p, false, nil
			}
			if err = json.Unmarshal(body, &p); err != nil {
				err = fmt.Errorf("bad %s: %w", rd.part, err)
			}
			return p, true, err
		}
	}
	for retry := false; ; retry = true {
		g = gathered[P]{gens: newGenVec(rt.k)}
		var memoFailed []int
		if rd.memos != nil {
			if memoFailed, status, errb = rd.memos(); status != 0 {
				return g, status, errb
			}
		}
		shards := rd.shards
		if rd.route && !retry {
			shards = rt.candidateShards(rt.ensureRouting(ctx, meta), rd.needles)
		} else if shards == nil {
			shards = rt.allShards()
		}
		results := rt.scatter(ctx, meta, shards, rd.method, rd.path, rd.body)
		g.parts = make([]P, len(shards))
		for j, sh := range shards {
			var ok bool
			var err error
			if results[j].err == nil {
				g.parts[j], ok, err = decode(results[j].status, results[j].body)
			}
			if err != nil {
				return g, http.StatusBadGateway, errBodyShard(codeBadUpstream, sh, "shard %d: %v", sh, err)
			}
			if !ok {
				g.failed = append(g.failed, sh)
				continue
			}
			g.gens.gens[sh], g.gens.ok[sh] = results[j].generation()
		}
		// Only a read that reads through a memo can be stale. A memo
		// build reads through none, so it never ends the attempt of the
		// read that runs it.
		if (rd.memos != nil || rd.route) && meta.endAttempt() {
			rt.invalidate()
			if retry {
				return g, http.StatusBadGateway, errBody(codeBadUpstream, "backend generations churned during %s merge; retry", rd.name)
			}
			continue
		}
		g.failed = mergeFailed(memoFailed, g.failed)
		if len(g.failed) > 0 && !rt.opts.FailOpen {
			return g, http.StatusServiceUnavailable, errBody(codeShardUnavailable, "shards %v unavailable (fail-closed)", g.failed)
		}
		return g, 0, nil
	}
}

func (rt *Router) routes() {
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/healthz", rt.endpoint("healthz", rt.handleHealthz))
	rt.mux.HandleFunc("/v1/stats", rt.endpoint("stats", rt.handleStats))
	rt.mux.HandleFunc("/v1/node", rt.endpoint("node", rt.handleNode))
	rt.mux.HandleFunc("/v1/search", rt.endpoint("search", rt.handleSearch))
	rt.mux.HandleFunc("/v1/metrics", rt.endpoint("metrics", rt.handleMetrics))
	rt.mux.HandleFunc("/v1/ingest", rt.endpoint("ingest", rt.handleIngest))
	rt.mux.HandleFunc("/v1/tag", rt.endpoint("tag", rt.handleTag))
	rt.mux.HandleFunc("/v1/query/rewrite", rt.endpoint("query_rewrite", rt.handleQueryRewrite))
	rt.mux.HandleFunc("/v1/story", rt.endpoint("story", rt.handleStory))
	rt.mux.HandleFunc("/v1/", unknownEndpoint)
}

// respMeta is one routed request's state. For the response it collects
// the per-shard backend generations, rendered into the router's
// X-Giant-Generation header as sorted "shard:gen" pairs ("0:3,1:5"), plus
// any extra headers (Retry-After on a 429). For the staleness rule it
// holds, since the current attempt began, every answer's (shard,
// generation) and every memo the request read through. Handlers note
// from fan-out goroutines, so it locks.
type respMeta struct {
	mu    sync.Mutex
	gens  map[int]string
	hdr   http.Header
	heard []shardGen
	pins  []*genVec
}

type shardGen struct {
	shard int
	gen   uint64
}

func (m *respMeta) noteGen(shard int, gen string) {
	if gen == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gens == nil {
		m.gens = map[int]string{}
	}
	m.gens[shard] = gen
	if g, err := strconv.ParseUint(gen, 10, 64); err == nil {
		m.heard = append(m.heard, shardGen{shard, g})
	}
}

// pin records a memo the current attempt reads through.
func (m *respMeta) pin(v *genVec) {
	m.mu.Lock()
	m.pins = append(m.pins, v)
	m.mu.Unlock()
}

// endAttempt reports whether a shard answered the current attempt at a
// generation other than one of its pinned memos recorded for it, and
// forgets both so that a retry starts clean.
func (m *respMeta) endAttempt() (stale bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, h := range m.heard {
		for _, v := range m.pins {
			stale = stale || v.ok[h.shard] && v.gens[h.shard] != h.gen
		}
	}
	m.heard, m.pins = nil, nil
	return stale
}

func (m *respMeta) setHeader(key, value string) {
	m.mu.Lock()
	if m.hdr == nil {
		m.hdr = http.Header{}
	}
	m.hdr.Set(key, value)
	m.mu.Unlock()
}

func (m *respMeta) apply(w http.ResponseWriter) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.gens) > 0 {
		shards := make([]int, 0, len(m.gens))
		for s := range m.gens {
			shards = append(shards, s)
		}
		sort.Ints(shards)
		parts := make([]string, 0, len(shards))
		for _, s := range shards {
			parts = append(parts, strconv.Itoa(s)+":"+m.gens[s])
		}
		w.Header().Set(genHeader, strings.Join(parts, ","))
	}
	for key, vals := range m.hdr {
		for _, v := range vals {
			w.Header().Add(key, v)
		}
	}
}

// endpoint wraps a router handler with metrics and response-metadata
// rendering; handlers return a status plus either a pre-rendered body
// ([]byte, proxied verbatim) or a JSON-marshalable payload.
func (rt *Router) endpoint(name string, fn func(r *http.Request, meta *respMeta) (int, any)) http.HandlerFunc {
	m := rt.metrics.endpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		meta := &respMeta{}
		status, payload := fn(r, meta)
		var body []byte
		if raw, ok := payload.([]byte); ok {
			body = raw
		} else {
			var err error
			body, err = json.Marshal(payload)
			if err != nil {
				status = http.StatusInternalServerError
				body, _ = json.Marshal(errBody(codeInternal, "encode response: "+err.Error()))
			}
			body = append(body, '\n')
		}
		meta.apply(w)
		writeBody(w, status, body, false)
		m.observe(status, time.Since(start), false)
	}
}

func (rt *Router) handleHealthz(r *http.Request, meta *respMeta) (int, any) {
	type backendHealth struct {
		Shard      int    `json:"shard"`
		Replica    int    `json:"replica"`
		URL        string `json:"url"`
		Healthy    bool   `json:"healthy"`
		Generation uint64 `json:"generation,omitempty"`
		WALGen     uint64 `json:"wal_gen,omitempty"`
		Error      string `json:"error,omitempty"`
	}
	reps := rt.allReplicas()
	backends := make([]backendHealth, len(reps))
	par.ForEachIndexed(rt.workers(), len(reps), func(i int) {
		rep := reps[i]
		res := rt.callReplica(r.Context(), rt.opts.Timeout, rep, http.MethodGet, "/healthz", nil)
		b := backendHealth{Shard: rep.shard, Replica: rep.idx, URL: rep.url, Healthy: res.ok()}
		if res.ok() {
			h := struct {
				Shard      int    `json:"shard"`
				Shards     int    `json:"shards"`
				Generation uint64 `json:"generation"`
				WALGen     uint64 `json:"wal_gen"`
			}{Shard: -1}
			// A body that does not decode, or names no shard, keeps
			// Shard -1 and so reads as a wrong shard below.
			_ = json.Unmarshal(res.body, &h)
			b.Generation = h.Generation
			b.WALGen = h.WALGen
			if msg := rt.wrongShard(rep.shard, h.Shard, h.Shards); msg != "" {
				b.Healthy, b.Error = false, msg
			}
		} else if res.err != nil {
			b.Error = res.err.Error()
		} else {
			b.Error = fmt.Sprintf("status %d", res.status)
		}
		backends[i] = b
	})
	status := "ok"
	for i := range backends {
		if !backends[i].Healthy {
			status = "degraded"
			break
		}
	}
	resp := map[string]any{"status": status, "shards": rt.k, "backends": backends}
	if rt.walMode() {
		resp["wal"] = rt.walStatus()
		if err := rt.log.Err(); err != nil {
			// Every ingest answers 503 until a restart recovers the log.
			resp["status"] = "degraded"
			resp["wal_error"] = err.Error()
		}
	}
	return http.StatusOK, resp
}

// wrongShard describes a backend in slot i that reports an identity other
// than shard i of the router's k: the -backends list is misordered, or it
// names a whole-world daemon (which reports no shard) or another fleet.
// It is empty when the identity matches.
func (rt *Router) wrongShard(i, shard, shards int) string {
	if shard == i && shards == rt.k {
		return ""
	}
	return fmt.Sprintf("backend %d serves shard %d/%d, want %d/%d (check -backends order)", i, shard, shards, i, rt.k)
}

// handleSearch answers /v1/search through the routed scatter — the
// cross-process twin of ShardedSnapshot.Search. The routing index prunes
// the fan-out to the shards whose term grams may contain the needle
// (pruning is a superset filter: a pruned-out shard provably has zero
// matches, so results stay byte-identical to the full scatter); a stale
// index costs one full scatter (scatterFold). ?scatter=full forces that
// full path up front — the CI smoke diffs it against the routed output on
// a live fleet.
func (rt *Router) handleSearch(r *http.Request, meta *respMeta) (int, any) {
	p, bad, perr := parseSearchParams(r.URL.Query())
	if bad != 0 {
		return bad, perr
	}
	v := url.Values{"q": {p.q}, "limit": {strconv.Itoa(p.limit)}}
	// Only consulted shards can be missing: a pruned-out shard contributes
	// nothing by construction, down or not.
	g, status, errb := scatterFold(rt, r.Context(), meta, read[struct {
		Results []searchHit `json:"results"`
	}]{
		name: "search", part: "search response", path: "/v1/search?" + v.Encode(),
		route: !p.full, needles: []string{strings.ToLower(p.q)},
	})
	if status != 0 {
		return status, errb
	}
	hits := []searchHit{}
	for _, ph := range g.parts {
		hits = append(hits, ph.Results...)
	}
	// Merge in union ID order: within a shard, home nodes preserve union
	// order, so each shard's first `limit` matches are a superset of its
	// contribution to the global first `limit`.
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].ID < hits[b].ID })
	hits = hits[:min(len(hits), p.limit)]
	return http.StatusOK, markPartial(map[string]any{"query": p.q, "count": len(hits), "results": hits}, g.failed)
}

// handleNode answers a node lookup in the composed view. A (type, phrase)
// request routes straight to HomeShard(type, phrase) — the node named by a
// canonical phrase is always homed there; an alias, ID or untyped lookup
// scatters instead, and the winner is chosen by the union's precedence
// order: phrase matches beat alias matches, then NodeType order, then
// union ID (each a first-win rule of the union index). The home shard's
// response carries the node, its complete parent/children lists and its
// direct IsA parents; the transitive ancestor chain is assembled by
// walking each ancestor's own home shard, level by level — reproducing the
// union's BFS exactly, because every hop queries the one shard holding
// that node's complete in-edge set.
func (rt *Router) handleNode(r *http.Request, meta *respMeta) (int, any) {
	q := r.URL.Query()
	var (
		chosen *shardNodeDetail
		seed   *shardNodeDetail // primary's alias answer, pre-competing in the scatter
		skip   = -1             // shard already queried by the typed fast path
	)
	switch {
	case q.Get("id") != "":
		if _, err := strconv.Atoi(q.Get("id")); err != nil {
			return http.StatusBadRequest, errBody(codeInvalidArgument, "invalid id: "+q.Get("id"))
		}
	case q.Get("phrase") != "":
		if ts := q.Get("type"); ts != "" {
			t, err := ontology.ParseNodeType(ts)
			if err != nil {
				return http.StatusBadRequest, errBody(codeInvalidArgument, err.Error())
			}
			primary := ontology.HomeShard(t, q.Get("phrase"), rt.k)
			res := rt.call(r.Context(), primary, http.MethodGet, "/v1/node?"+r.URL.RawQuery, nil)
			if res.err != nil {
				return http.StatusBadGateway, errBodyShard(codeShardUnavailable, primary, "shard %d unavailable: %v", primary, res.err)
			}
			meta.noteGen(primary, res.gen)
			d, _, err := decodeNode(res.status, res.body)
			if err != nil {
				return http.StatusBadGateway, errBodyShard(codeBadUpstream, primary, "shard %d: %v", primary, err)
			}
			// Only a phrase match short-circuits: the canonical phrase can
			// live on no other shard. An alias answer must compete in the
			// scatter below — the union's first-win alias resolution may
			// prefer a same-typed alias homed elsewhere with a smaller
			// union ID. A miss falls through to the scatter too — the
			// phrase may be an alias of a node homed on any shard — with
			// the primary's answer seeded so it is not re-queried.
			if d != nil && d.Match == "phrase" {
				chosen = d
			}
			seed, skip = d, primary
		}
	default:
		return http.StatusBadRequest, errBody(codeInvalidArgument, "need ?id= or ?phrase=")
	}
	if chosen == nil {
		best, failed, status, errb := rt.scatterNode(r.Context(), meta, r.URL.RawQuery, skip, seed)
		switch {
		case status != 0:
			return status, errb
		case best == nil && len(failed) > 0:
			return http.StatusBadGateway, errBody(codeShardUnavailable, "shards %v unavailable", failed)
		case best == nil:
			return http.StatusNotFound, errBody(codeNotFound, "node not found")
		}
		chosen = best
	}
	ancestors, err := rt.assembleAncestors(r.Context(), chosen)
	if err != nil {
		return http.StatusBadGateway, errBody(codeBadUpstream, "assemble ancestors: "+err.Error())
	}
	d := chosen.nodeDetail
	d.Ancestors = ancestors
	return http.StatusOK, d
}

// decodeNode decodes one shard's /v1/node answer: a 404 is a legitimate
// "not homed here" (a nil detail); any status but 200 and 404 (500
// mid-swap, 503) means the shard could not answer — a reachable but
// unhealthy shard is not a license to report "node not found".
func decodeNode(status int, body []byte) (*shardNodeDetail, bool, error) {
	switch status {
	case http.StatusOK:
		var d shardNodeDetail
		if err := json.Unmarshal(body, &d); err != nil {
			return nil, true, fmt.Errorf("bad node response: %w", err)
		}
		return &d, true, nil
	case http.StatusNotFound:
		return nil, true, nil
	}
	return nil, false, nil
}

// scatterNode fans one /v1/node query out to every shard (except skip, a
// shard the caller already queried — its answer, if any, enters as seed)
// and picks the union-precedence winner among the answers, with the
// shards that failed to answer. A non-zero status aborts the lookup.
func (rt *Router) scatterNode(ctx context.Context, meta *respMeta, rawQuery string, skip int, seed *shardNodeDetail) (*shardNodeDetail, []int, int, any) {
	shards := slices.DeleteFunc(rt.allShards(), func(i int) bool { return i == skip })
	g, status, errb := scatterFold(rt, ctx, meta, read[*shardNodeDetail]{path: "/v1/node?" + rawQuery, shards: shards, decode: decodeNode})
	if status != 0 {
		return nil, nil, status, errb
	}
	best := seed
	for _, d := range g.parts {
		if d != nil && (best == nil || rankLess(nodeMatchRank(d), nodeMatchRank(best))) {
			best = d
		}
	}
	return best, g.failed, 0, nil
}

// nodeMatchRank orders scatter answers by the union's lookup precedence:
// phrase matches before alias matches, then NodeType order, then union ID.
func nodeMatchRank(d *shardNodeDetail) [3]int {
	mr := 0
	if d.Match == "alias" {
		mr = 1
	}
	tr := 0
	if t, err := ontology.ParseNodeType(d.Node.Type); err == nil {
		tr = int(t)
	}
	return [3]int{mr, tr, int(d.Node.ID)}
}

func rankLess(a, b [3]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// assembleAncestors rebuilds the transitive IsA ancestor chain of a node
// from per-shard answers, reproducing Snapshot.Ancestors' BFS order: the
// frontier is processed level by level, every node's direct parents arrive
// in union in-edge order from its home shard, and first-seen wins.
func (rt *Router) assembleAncestors(ctx context.Context, d *shardNodeDetail) ([]string, error) {
	seen := map[ontology.NodeID]bool{d.Node.ID: true}
	var out []string
	adopt := func(refs []isaRef) []isaRef {
		var added []isaRef
		for _, ref := range refs {
			if seen[ref.ID] {
				continue
			}
			seen[ref.ID] = true
			out = append(out, ref.Phrase)
			added = append(added, ref)
		}
		return added
	}
	frontier := adopt(d.IsAParents)
	for len(frontier) > 0 {
		// One level's fetches are independent — run them through the
		// bounded fan-out pool (one round-trip per level, not per node) —
		// then adopt in frontier order, which is what fixes the BFS
		// ordering; the fetch order never observes `seen`.
		parents := make([][]isaRef, len(frontier))
		errs := make([]error, len(frontier))
		par.ForEachIndexed(rt.workers(), len(frontier), func(i int) {
			parents[i], errs[i] = rt.fetchIsAParents(ctx, frontier[i])
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		var next []isaRef
		for i := range frontier {
			next = append(next, adopt(parents[i])...)
		}
		frontier = next
	}
	return out, nil
}

// fetchIsAParents asks an ancestor's home shard for its direct IsA
// parents (a cacheable point lookup on the backend).
func (rt *Router) fetchIsAParents(ctx context.Context, ref isaRef) ([]isaRef, error) {
	t, err := ontology.ParseNodeType(ref.Type)
	if err != nil {
		return nil, fmt.Errorf("ancestor %q: %w", ref.Phrase, err)
	}
	shard := ontology.HomeShard(t, ref.Phrase, rt.k)
	v := url.Values{}
	v.Set("phrase", ref.Phrase)
	v.Set("type", ref.Type)
	res := rt.call(ctx, shard, http.MethodGet, "/v1/node?"+v.Encode(), nil)
	if res.err != nil {
		return nil, fmt.Errorf("shard %d unavailable: %w", shard, res.err)
	}
	if res.status != http.StatusOK {
		return nil, fmt.Errorf("shard %d: ancestor %q: status %d", shard, ref.Phrase, res.status)
	}
	var parsed shardNodeDetail
	if err := json.Unmarshal(res.body, &parsed); err != nil {
		return nil, fmt.Errorf("shard %d: bad node response: %w", shard, err)
	}
	return parsed.IsAParents, nil
}

// handleStats fans /v1/stats out and reassembles the in-process sharded
// stats shape: exact whole-world counts from each shard's owned slice and
// the per-shard generation list verbatim.
func (rt *Router) handleStats(r *http.Request, meta *respMeta) (int, any) {
	type shardBlock struct {
		Shard       int            `json:"shard"`
		Shards      int            `json:"shards"`
		Generation  uint64         `json:"generation"`
		Nodes       int            `json:"nodes"`
		Edges       int            `json:"edges"`
		OwnedEdges  int            `json:"owned_edges"`
		NodesByType map[string]int `json:"nodes_by_type"`
		EdgesByType map[string]int `json:"edges_by_type"`
	}
	g, status, errb := scatterFold(rt, r.Context(), meta, read[*shardBlock]{
		path: "/v1/stats",
		decode: func(status int, body []byte) (*shardBlock, bool, error) {
			var parsed struct {
				Shard *shardBlock `json:"shard"`
			}
			if status != http.StatusOK {
				return nil, false, nil
			}
			if err := json.Unmarshal(body, &parsed); err != nil || parsed.Shard == nil {
				return nil, true, fmt.Errorf("not a per-shard stats response (is the backend running with -shard?)")
			}
			return parsed.Shard, true, nil
		},
	})
	if status != 0 {
		return status, errb
	}
	nodes, edges := 0, 0
	nodesByType, edgesByType := map[string]int{}, map[string]int{}
	shards := make([]shardSummary, 0, rt.k)
	for i, sb := range g.parts {
		if sb == nil {
			continue
		}
		if msg := rt.wrongShard(i, sb.Shard, sb.Shards); msg != "" {
			return http.StatusBadGateway, errBodyShard(codeBadUpstream, i, msg)
		}
		nodes += sb.Nodes
		edges += sb.OwnedEdges
		for k, v := range sb.NodesByType {
			nodesByType[k] += v
		}
		for k, v := range sb.EdgesByType {
			edgesByType[k] += v
		}
		shards = append(shards, shardSummary{Shard: i, Generation: sb.Generation, Nodes: sb.Nodes, Edges: sb.Edges})
	}
	resp := markPartial(map[string]any{
		"nodes":         nodes,
		"edges":         edges,
		"nodes_by_type": nodesByType,
		"edges_by_type": edgesByType,
		"shards":        shards,
	}, g.failed)
	if rt.walMode() {
		resp["wal"] = rt.walStatus()
	}
	return http.StatusOK, resp
}

func (rt *Router) handleMetrics(r *http.Request, meta *respMeta) (int, any) {
	results := rt.scatter(r.Context(), meta, rt.allShards(), http.MethodGet, "/v1/metrics", nil)
	backends := make([]any, rt.k)
	for i := range results {
		if results[i].ok() {
			var m json.RawMessage = results[i].body
			backends[i] = m
		} else {
			backends[i] = map[string]any{"shard": i, "error": "unavailable"}
		}
	}
	return http.StatusOK, map[string]any{
		"uptime_seconds": time.Since(rt.metrics.start).Seconds(),
		"endpoints":      rt.metrics.snapshot(),
		"backends":       backends,
	}
}

// handleIngest applies a batch fleet-wide through the delta log: validate,
// push back if any shard's slowest healthy replica has fallen too far
// behind, append the batch once to the fleet's log, then block until a
// quorum (⌈N/2⌉) of each shard's replicas confirm the apply through GET
// /v1/wal. Replicas left behind by the quorum catch up from the log alone
// and are kept out of read rotation by the generation gate until they do.
// A router without a log is read-only and answers 503.
func (rt *Router) handleIngest(r *http.Request, meta *respMeta) (int, any) {
	if r.Method != http.MethodPost {
		return http.StatusMethodNotAllowed, errBody(codeMethodNotAllowed, "use POST")
	}
	if !rt.walMode() {
		return http.StatusServiceUnavailable, errBody(codeUnavailable,
			"this router is read-only: a fleet changes only through its delta log; start the router with -wal")
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return bodyError("read body", err)
	}
	var batch delta.Batch
	if err := json.Unmarshal(body, &batch); err != nil {
		return http.StatusBadRequest, errBody(codeInvalidArgument, "decode batch: "+err.Error())
	}
	rt.ingestMu.Lock()
	defer rt.ingestMu.Unlock()
	// Backpressure: a shard whose slowest healthy replica trails the log
	// head by more than MaxLag must drain first — otherwise a slow-but-
	// alive replica falls unboundedly far behind the reads its gate
	// position already excludes it from serving.
	head := rt.log.Head()
	for s := range rt.shards {
		minApplied, have := rt.appliedFloor(s)
		if have && head > minApplied && head-minApplied > rt.opts.MaxLag {
			meta.setHeader("Retry-After", "1")
			e := errBodyShard(codeReplicaLagging, s,
				"shard %d delta log at generation %d but its slowest healthy replica has applied %d (max lag %d); retry later",
				s, head, minApplied, rt.opts.MaxLag)
			e.Error.Generation = head
			return http.StatusTooManyRequests, e
		}
	}
	walGen, err := rt.log.Append(batch.Day, body)
	if err != nil {
		// The record may have reached the file, and replicas may apply it:
		// the outcome is unknown, and the log refuses further appends until
		// the router restarts and its recovery settles the tail.
		rt.invalidate()
		return http.StatusServiceUnavailable, errBody(codeUnavailable,
			"delta log append failed, so this batch may or may not be applied; restart the router to recover the log: %v", err)
	}
	status, resp := rt.awaitQuorum(r.Context(), meta, walGen)
	rt.invalidateAfterWrite(status)
	return status, resp
}

// awaitQuorum asks every replica to confirm the apply of log record
// walGen and merges the outcome once each shard reaches quorum (or every
// replica has answered). Because replicas apply the deterministic mining
// pipeline, any confirming replica's recorded outcome stands for its
// whole shard.
func (rt *Router) awaitQuorum(ctx context.Context, meta *respMeta, walGen uint64) (int, any) {
	ackTimeout := rt.opts.WriteTimeout
	// Detached from the client request: once appended, the apply wait must
	// not be abandoned by a client disconnect.
	actx := context.WithoutCancel(ctx)
	type ack struct {
		shard  int
		ok     bool           // the replica confirmed the apply
		status int            // HTTP-equivalent status of the apply (when reported)
		result map[string]any // the apply's response payload (when reported)
		err    string
	}
	reps := rt.allReplicas()
	acks := make(chan ack, len(reps))
	pq := fmt.Sprintf("/v1/wal?wait=%d&timeout_ms=%d", walGen, ackTimeout.Milliseconds())
	for _, rep := range reps {
		go func(rep *replicaState) {
			res := rt.callReplica(actx, ackTimeout+5*time.Second, rep, http.MethodGet, pq, nil)
			a := ack{shard: rep.shard}
			switch {
			case res.err != nil:
				a.err = res.err.Error()
			case res.status != http.StatusOK:
				a.err = fmt.Sprintf("status %d", res.status)
			default:
				var parsed struct {
					Applied bool `json:"applied"`
					Last    *struct {
						WALGen uint64         `json:"wal_gen"`
						Status int            `json:"status"`
						Result map[string]any `json:"result"`
					} `json:"last"`
				}
				if jerr := json.Unmarshal(res.body, &parsed); jerr != nil {
					a.err = "bad /v1/wal response: " + jerr.Error()
				} else if !parsed.Applied {
					a.err = "apply wait timed out"
				} else {
					a.ok = true
					if parsed.Last != nil && parsed.Last.WALGen == walGen {
						a.status = parsed.Last.Status
						a.result = parsed.Last.Result
					}
				}
			}
			acks <- a
		}(rep)
	}
	need := make([]int, rt.k)
	for s, reps := range rt.shards {
		need[s] = (len(reps) + 1) / 2
	}
	got := make([]int, rt.k)
	statuses := make([]int, rt.k)
	reports := make([]map[string]any, rt.k)
	lastErr := make([]string, rt.k)
	quorum := func() bool {
		for s := range need {
			if got[s] < need[s] || statuses[s] == 0 {
				return false
			}
		}
		return true
	}
	// Drain until every shard reaches quorum with a recorded outcome, or
	// every replica has answered; stragglers drain into the buffered
	// channel and exit on their own.
	for pending := len(reps); pending > 0 && !quorum(); pending-- {
		a := <-acks
		if a.ok {
			got[a.shard]++
			if statuses[a.shard] == 0 && a.status != 0 {
				statuses[a.shard] = a.status
				reports[a.shard] = a.result
			}
		} else if a.err != "" {
			lastErr[a.shard] = a.err
		}
	}
	var failed []int
	for s := range need {
		if got[s] < need[s] || statuses[s] == 0 {
			failed = append(failed, s)
		}
	}
	if len(failed) > 0 {
		rows := make([]shardWriteStatus, rt.k)
		for s := range rows {
			applied := got[s] >= need[s] && statuses[s] != 0
			rows[s] = shardWriteStatus{Shard: s, Applied: applied, Status: statuses[s], Error: lastErr[s]}
			if rep := reports[s]; rep != nil {
				if g, ok := rep["generation"].(float64); ok {
					rows[s].Generation = uint64(g)
				}
			}
		}
		return http.StatusBadGateway, map[string]any{
			"error": apiError{Code: codeShardUnavailable, Message: fmt.Sprintf(
				"batch appended at log generation %d, but shards %v did not confirm the apply at quorum; do not resend it: their replicas apply it from the log", walGen, failed)},
			"shards": rows,
		}
	}
	// A batch the deterministic mining pipeline rejects is rejected
	// identically by every replica of every shard: forward the client
	// fault verbatim.
	uniform := statuses[0]
	for _, st := range statuses {
		if st != uniform {
			uniform = 0
			break
		}
	}
	if uniform >= 400 && uniform < 500 {
		return uniform, reports[0]
	}
	if uniform != http.StatusOK {
		rows := make([]shardWriteStatus, rt.k)
		for s := range rows {
			rows[s] = shardWriteStatus{Shard: s, Applied: statuses[s] == http.StatusOK, Status: statuses[s]}
		}
		return http.StatusBadGateway, map[string]any{
			"error": apiError{Code: codeBadUpstream, Message: fmt.Sprintf(
				"shards disagreed on the outcome of log generation %d; the replicas marked applied=false diverged from the log and must be restarted", walGen)},
			"shards": rows,
		}
	}
	gens := make([]uint64, rt.k)
	walGens := make([]uint64, rt.k) // one log: the same position for every shard
	rows := make([]shardWriteStatus, rt.k)
	nodes := 0
	for s, rep := range reports {
		g, _ := rep["generation"].(float64)
		gens[s], walGens[s] = uint64(g), walGen
		applied := true
		if rp, ok := rep["republished"].(bool); ok {
			applied = rp
		}
		rows[s] = shardWriteStatus{Shard: s, Generation: uint64(g), Applied: applied}
		if hn, ok := rep["home_nodes"].(float64); ok {
			nodes += int(hn)
		}
		meta.noteGen(s, strconv.FormatUint(uint64(g), 10))
	}
	touched := []int{}
	if ta, ok := reports[0]["touched_shards"].([]any); ok {
		for _, v := range ta {
			if f, ok := v.(float64); ok {
				touched = append(touched, int(f))
			}
		}
	}
	resp := map[string]any{
		"shards":            rows,
		"shard_generations": gens,
		"wal_generations":   walGens,
		"touched_shards":    touched,
		"nodes":             nodes,
	}
	if d, ok := reports[0]["delta"].(map[string]any); ok {
		resp["delta"] = d
	}
	return http.StatusOK, resp
}
