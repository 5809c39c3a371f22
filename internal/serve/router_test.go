package serve

// The multi-process serving tier's pin: a giantrouter-style Router fanned
// out over K per-shard backends must be indistinguishable — byte for byte
// on /v1/search and /v1/node, generation for generation on /v1/stats —
// from a single-process NewSharded server over the same world, for every
// K, through a full day-by-day ingest replay through the fleet's delta
// log. Every backend runs its own full (deterministic) mining system,
// exactly as K separate `giantd -shard i/k -build -wal` processes would.
//
// Fault injection rides the same harness shape: backends are wrapped in a
// connection-slamming proxy so the router sees real transport errors, and
// both degraded-mode policies (fail-closed 503 vs fail-open "partial")
// plus recovery and goroutine hygiene are asserted.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	giant "giant"
	"giant/internal/delta"
	"giant/internal/ontology"
	"giant/internal/wal"
)

// getRaw fetches a URL and returns the verbatim status and body.
func getRaw(t *testing.T, c *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, body
}

// shardIngester adapts a backend's full mining system to the per-shard
// serve option, exactly as cmd/giantd -shard -build -wal wires it: the
// backends of one log share its mined outcomes.
func shardIngester(sys *giant.System, shard int, walDir string) func(delta.Batch, wal.Record) (*ontology.ShardProjection, *delta.Delta, []bool, error) {
	return func(b delta.Batch, rec wal.Record) (*ontology.ShardProjection, *delta.Delta, []bool, error) {
		next, d, touched, err := sys.IngestSharded(b, &wal.Outcome{Dir: walDir, Gen: rec.Gen, Payload: rec.Payload})
		if err != nil {
			return nil, nil, nil, err
		}
		return next.Projection(shard), d, touched, nil
	}
}

// routerFixture is one K-shard multi-process deployment next to its
// single-process reference.
type routerFixture struct {
	k        int
	ref      *refWorld
	routerTS *httptest.Server
}

// newRouterFixture builds the reference system plus K independent backend
// systems (all deterministic twins), boots K per-shard replicas tailing
// one delta log and a router appending to it, and registers cleanup.
func newRouterFixture(t *testing.T, cfg giant.Config, splitDay, k int) *routerFixture {
	t.Helper()
	cfg.Shards = k

	refSys, err := giant.BuildUpToDay(cfg, splitDay)
	if err != nil {
		t.Fatalf("build reference (k=%d): %v", k, err)
	}
	refSS, err := refSys.ShardedSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefWorld(t, refSS, func(b delta.Batch) (*ontology.ShardedSnapshot, *delta.Delta, []bool, error) {
		return refSys.IngestSharded(b, nil)
	}, Options{ConceptContextFn: refSys.ConceptContext})

	urls := make([]string, k)
	walDir := t.TempDir()
	for i := 0; i < k; i++ {
		backSys, err := giant.BuildUpToDay(cfg, splitDay)
		if err != nil {
			t.Fatalf("build backend %d (k=%d): %v", i, k, err)
		}
		proj, err := backSys.ShardProjection(i)
		if err != nil {
			t.Fatal(err)
		}
		back := NewShard(proj, Options{
			ShardIngest:      shardIngester(backSys, i, walDir),
			ConceptContextFn: backSys.ConceptContext,
		})
		followLog(t, walDir, back)
		backTS := httptest.NewServer(back.Handler())
		t.Cleanup(backTS.Close)
		urls[i] = backTS.URL
	}
	rt, err := NewRouter(RouterOptions{Backends: urls, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	routerTS := httptest.NewServer(rt.Handler())
	t.Cleanup(routerTS.Close)
	return &routerFixture{k: k, ref: ref, routerTS: routerTS}
}

// assertSameBody asserts the reference and the router answer one request
// with identical status and identical bytes.
func (f *routerFixture) assertSameBody(t *testing.T, path string) {
	t.Helper()
	refStatus, refBody := getRaw(t, f.ref.Client(), f.ref.URL+path)
	gotStatus, gotBody := getRaw(t, f.routerTS.Client(), f.routerTS.URL+path)
	if refStatus != gotStatus {
		t.Fatalf("k=%d %s: status %d via router, %d in-process\nrouter: %s\nref:    %s",
			f.k, path, gotStatus, refStatus, gotBody, refBody)
	}
	if !bytes.Equal(refBody, gotBody) {
		t.Fatalf("k=%d %s: bodies diverge\nrouter: %s\nref:    %s", f.k, path, gotBody, refBody)
	}
}

// assertStatsMatch asserts the router's merged /v1/stats agrees with the
// in-process sharded stats on everything deterministic: whole-world
// counts, per-type maps, and — the generation contract — the per-shard
// generation list.
func (f *routerFixture) assertStatsMatch(t *testing.T) {
	t.Helper()
	ref := f.ref.stats()
	got := getJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/stats", 200)
	for _, field := range []string{"nodes", "edges", "nodes_by_type", "edges_by_type", "shards"} {
		if !reflect.DeepEqual(ref[field], got[field]) {
			t.Fatalf("k=%d stats %q diverges:\nrouter: %v\nref:    %v", f.k, field, got[field], ref[field])
		}
	}
}

// nodeProbePaths samples /v1/node request shapes across the reference
// snapshot: typed and untyped phrase lookups, ID lookups, alias lookups
// and misses.
func (f *routerFixture) nodeProbePaths(limit int) []string {
	snap := f.ref.current().Current()
	paths := []string{
		"/v1/node?phrase=zzz-no-such-node",
		"/v1/node?id=999999",
		"/v1/node?id=bogus",
		"/v1/node?phrase=x&type=bogus",
		"/v1/node",
	}
	nodes := snap.Nodes()
	stride := len(nodes)/limit + 1
	for i := 0; i < len(nodes); i += stride {
		n := nodes[i]
		v := url.Values{}
		v.Set("phrase", n.Phrase)
		paths = append(paths, "/v1/node?"+v.Encode())
		v.Set("type", n.Type.String())
		paths = append(paths, "/v1/node?"+v.Encode())
		paths = append(paths, fmt.Sprintf("/v1/node?id=%d", n.ID))
		for _, a := range n.Aliases {
			av := url.Values{}
			av.Set("phrase", a)
			av.Set("type", n.Type.String())
			paths = append(paths, "/v1/node?"+av.Encode())
			break
		}
	}
	return paths
}

// searchProbePaths samples /v1/search shapes: common tokens, full
// phrases, misses, and limits below/at/above the hit count.
func (f *routerFixture) searchProbePaths(limitNodes int) []string {
	snap := f.ref.current().Current()
	terms := []string{"a", "e", "zzz-no-hit"}
	nodes := snap.Nodes()
	stride := len(nodes)/limitNodes + 1
	for i := 0; i < len(nodes); i += stride {
		terms = append(terms, nodes[i].Phrase)
	}
	paths := []string{"/v1/search", "/v1/search?q=a&limit=bogus"}
	for _, q := range terms {
		v := url.Values{}
		v.Set("q", q)
		for _, limit := range []string{"1", "5", "100"} {
			v.Set("limit", limit)
			paths = append(paths, "/v1/search?"+v.Encode())
		}
	}
	return paths
}

// replayDays posts each remaining day of the synthetic log as one ingest
// batch to both deployments, asserting the generation accounting agrees
// after every batch.
func (f *routerFixture) replayDays(t *testing.T, log []struct {
	Query  string
	DocID  int
	Clicks int
	Day    int
}, splitDay, maxDay int) {
	t.Helper()
	for day := splitDay + 1; day <= maxDay; day++ {
		batch := delta.Batch{Day: day}
		for _, r := range log {
			if r.Day == day {
				batch.Clicks = append(batch.Clicks, delta.Click{Query: r.Query, DocID: r.DocID, Clicks: r.Clicks, Day: r.Day})
			}
		}
		body, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		refResp := f.ref.step(string(body))
		gotResp := postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", string(body), 200)
		if !reflect.DeepEqual(refResp["touched_shards"], gotResp["touched_shards"]) {
			t.Fatalf("k=%d day %d: touched shards diverge: router %v, ref %v",
				f.k, day, gotResp["touched_shards"], refResp["touched_shards"])
		}
		if !reflect.DeepEqual(refResp["shard_generations"], gotResp["shard_generations"]) {
			t.Fatalf("k=%d day %d: shard generations diverge: router %v, ref %v",
				f.k, day, gotResp["shard_generations"], refResp["shard_generations"])
		}
		f.assertStatsMatch(t)
	}
}

// TestRouterEquivalence is the multi-process determinism pin: for
// K ∈ {1, 2, 4}, a router over K per-shard backend processes — each
// running its own deterministic mining system — replays the synthetic
// corpus day by day through router ingest and stays byte-identical to the
// single-process NewSharded path on /v1/search and /v1/node, with
// identical per-shard generations in /v1/stats after every batch.
func TestRouterEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system replay is slow; skipped under -short")
	}
	cfg := giant.TinyConfig()
	// No TTL decay: day gaps in the tiny log would otherwise make the
	// retirement schedule depend on batch boundaries.
	cfg.Update = delta.Policy{EventTTL: 0, ConceptTTL: 0, TopicTTL: 0}
	// The harness builds K+1 full systems per shard count; shrink the
	// GCTSP training budget (mining falls back gracefully — equivalence is
	// about serving, not model quality) to keep the -race run affordable.
	cfg.TrainConcepts, cfg.TrainEvents = 12, 12
	cfg.GCTSP.Epochs = 1

	// The click log is regenerated directly (cheap and deterministic) to
	// enumerate the replay days without building another full system.
	world := cfg
	maxDay := 0
	var log []struct {
		Query  string
		DocID  int
		Clicks int
		Day    int
	}
	{
		sys, err := giant.BuildUpToDay(world, -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sys.Log.Records {
			log = append(log, struct {
				Query  string
				DocID  int
				Clicks int
				Day    int
			}{r.Query, r.DocID, r.Clicks, r.Day})
			if r.Day > maxDay {
				maxDay = r.Day
			}
		}
	}
	if maxDay < 2 {
		t.Fatalf("log too shallow for a split: max day %d", maxDay)
	}
	splitDay := maxDay / 2

	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			f := newRouterFixture(t, cfg, splitDay, k)

			// Pre-replay: the freshly booted fleet already matches.
			f.assertStatsMatch(t)
			for _, p := range f.nodeProbePaths(6) {
				f.assertSameBody(t, p)
			}
			for _, p := range f.searchProbePaths(4) {
				f.assertSameBody(t, p)
			}

			f.replayDays(t, log, splitDay, maxDay)

			// Post-replay: full probe sweep over the evolved world.
			for _, p := range f.nodeProbePaths(12) {
				f.assertSameBody(t, p)
			}
			for _, p := range f.searchProbePaths(8) {
				f.assertSameBody(t, p)
			}
		})
	}
}

// TestRouterAliasPrecedenceAcrossShards pins the union's first-win alias
// resolution across process boundaries: when two same-typed nodes on
// DIFFERENT shards share an alias, a typed alias lookup through the
// router must return the same node the in-process union resolves —
// the lowest union ID — even though the alias's own phrase hash routes to
// the other node's shard (regression: the typed-lookup fast path used to
// accept the routed shard's alias answer without the scatter competition).
func TestRouterAliasPrecedenceAcrossShards(t *testing.T) {
	const k = 2
	// Brute-force phrases with the shard placements the scenario needs:
	// nodeA homed on shard 0, nodeB and the shared alias hashing to 1.
	pick := func(want int, tmpl string) string {
		for i := 0; ; i++ {
			p := fmt.Sprintf(tmpl, i)
			if ontology.HomeShard(ontology.Concept, p, k) == want {
				return p
			}
		}
	}
	phraseA := pick(0, "alpha widgets %d")
	phraseB := pick(1, "beta widgets %d")
	alias := pick(1, "shared widgets %d")

	o := ontology.New()
	a := o.AddNode(ontology.Concept, phraseA)
	o.AddAlias(a, alias)
	b := o.AddNode(ontology.Concept, phraseB)
	o.AddAlias(b, alias)
	snap := o.Snapshot()
	ss, err := ontology.ShardSnapshot(snap, k)
	if err != nil {
		t.Fatal(err)
	}

	refTS := httptest.NewServer(NewSharded(ss, Options{}).Handler())
	defer refTS.Close()
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		ts := httptest.NewServer(NewShard(ss.Projection(i), Options{}).Handler())
		defer ts.Close()
		urls[i] = ts.URL
	}
	rt, err := NewRouter(RouterOptions{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	routerTS := httptest.NewServer(rt.Handler())
	defer routerTS.Close()

	for _, path := range []string{
		"/v1/node?" + url.Values{"phrase": {alias}, "type": {"concept"}}.Encode(),
		"/v1/node?" + url.Values{"phrase": {alias}}.Encode(),
	} {
		refStatus, refBody := getRaw(t, refTS.Client(), refTS.URL+path)
		gotStatus, gotBody := getRaw(t, routerTS.Client(), routerTS.URL+path)
		if refStatus != 200 || gotStatus != 200 || !bytes.Equal(refBody, gotBody) {
			t.Fatalf("%s: router (%d) %s != in-process (%d) %s", path, gotStatus, gotBody, refStatus, refBody)
		}
		if !bytes.Contains(gotBody, []byte(phraseA)) {
			t.Fatalf("%s: alias resolved to the wrong node: %s (union first-win is %q)", path, gotBody, phraseA)
		}
	}
}

// flakyBackend simulates a killed backend process: while down, every
// request's connection is slammed shut, surfacing as a transport error at
// the router.
type flakyBackend struct {
	down atomic.Bool
	h    http.Handler
}

func (f *flakyBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	f.h.ServeHTTP(w, r)
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// newFaultFixture boots k flaky per-shard backends plus a router with the
// given policy. The returned closer is idempotent, shuts the whole fleet
// down, and is also registered as test cleanup.
func newFaultFixture(t *testing.T, k int, failOpen bool) ([]*flakyBackend, *httptest.Server, func()) {
	t.Helper()
	ss, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), k)
	if err != nil {
		t.Fatal(err)
	}
	flaky := make([]*flakyBackend, k)
	urls := make([]string, k)
	backends := make([]*httptest.Server, k)
	for i := 0; i < k; i++ {
		flaky[i] = &flakyBackend{h: NewShard(ss.Projection(i), Options{}).Handler()}
		backends[i] = httptest.NewServer(flaky[i])
		urls[i] = backends[i].URL
	}
	rt, err := NewRouter(RouterOptions{
		Backends:      urls,
		FailOpen:      failOpen,
		Timeout:       2 * time.Second,
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(rt.Handler())
	var once sync.Once
	closeAll := func() {
		once.Do(func() {
			routerTS.Close()
			rt.Close()
			for _, b := range backends {
				b.CloseClientConnections()
				b.Close()
			}
		})
	}
	t.Cleanup(closeAll)
	return flaky, routerTS, closeAll
}

// TestRouterFaultInjectionFailOpen kills one backend in the middle of a
// concurrent search hammer: a fail-open router must never 5xx — degraded
// responses carry "partial": true with the missing shard named — and full
// (non-partial) results must come back once the backend recovers. The
// whole lifecycle must not leak goroutines.
func TestRouterFaultInjectionFailOpen(t *testing.T) {
	before := runtime.NumGoroutine()

	func() {
		flaky, routerTS, closeAll := newFaultFixture(t, 2, true)
		defer closeAll()

		searchURL := routerTS.URL + "/v1/search?q=sedan&limit=5"
		_, full := getRaw(t, routerTS.Client(), searchURL)

		const hammerGoroutines = 8
		var wg sync.WaitGroup
		var server5xx, sawPartial atomic.Int64
		stop := make(chan struct{})
		for g := 0; g < hammerGoroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := &http.Client{Timeout: 10 * time.Second}
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := c.Get(searchURL)
					if err != nil {
						t.Errorf("router search: %v", err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode >= 500 {
						server5xx.Add(1)
						t.Errorf("fail-open router returned %d: %s", resp.StatusCode, body)
					}
					if bytes.Contains(body, []byte(`"partial":true`)) {
						sawPartial.Add(1)
					}
				}
			}()
		}
		// Kill shard 1 mid-hammer, let degraded traffic flow, then revive.
		time.Sleep(20 * time.Millisecond)
		flaky[1].down.Store(true)
		waitFor(t, 5*time.Second, "a partial response while shard 1 is down", func() bool {
			return sawPartial.Load() > 0
		})
		flaky[1].down.Store(false)
		// Recovery: a full, non-partial, byte-identical response returns.
		waitFor(t, 5*time.Second, "full results after shard 1 recovered", func() bool {
			status, body := getRaw(t, routerTS.Client(), searchURL)
			return status == 200 && bytes.Equal(body, full)
		})
		close(stop)
		wg.Wait()
		if server5xx.Load() > 0 {
			t.Fatalf("%d responses were 5xx in fail-open mode", server5xx.Load())
		}
		if sawPartial.Load() == 0 {
			t.Fatal("backend kill produced no partial responses")
		}
	}()

	// Goroutine hygiene (goleak-style): after the router, its prober and
	// every test server shut down, the goroutine count settles back.
	waitFor(t, 5*time.Second, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+3
	})
}

// TestRouterFaultInjectionFailClosed: the fail-closed policy answers 503
// while a shard is down — naming the shard — and recovers to 200 with
// full results; /healthz reports the degraded backend in both states.
func TestRouterFaultInjectionFailClosed(t *testing.T) {
	flaky, routerTS, _ := newFaultFixture(t, 2, false)
	searchURL := routerTS.URL + "/v1/search?q=sedan&limit=5"
	_, full := getRaw(t, routerTS.Client(), searchURL)

	flaky[0].down.Store(true)
	status, body := getRaw(t, routerTS.Client(), searchURL)
	if status != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("[0]")) {
		t.Fatalf("fail-closed search with a dead shard = %d: %s", status, body)
	}
	h := getJSON(t, routerTS.Client(), routerTS.URL+"/healthz", 200)
	if h["status"] != "degraded" {
		t.Fatalf("healthz with a dead shard = %v", h["status"])
	}
	// Stats degrade the same way.
	s, sbody := getRaw(t, routerTS.Client(), routerTS.URL+"/v1/stats")
	if s != http.StatusServiceUnavailable {
		t.Fatalf("fail-closed stats with a dead shard = %d: %s", s, sbody)
	}

	flaky[0].down.Store(false)
	waitFor(t, 5*time.Second, "recovery to full results", func() bool {
		status, body := getRaw(t, routerTS.Client(), searchURL)
		return status == 200 && bytes.Equal(body, full)
	})
	h = getJSON(t, routerTS.Client(), routerTS.URL+"/healthz", 200)
	if h["status"] != "ok" {
		t.Fatalf("healthz after recovery = %v", h["status"])
	}
}

// TestRouterBoundsUpstreamBody: a backend that streams maxUpstreamBytes+1
// bytes of search response and then holds the body open is a failed shard
// — 503 under fail-closed, 200 "partial": true under fail-open — answered
// long before the router's read timeout: the router stops reading one
// byte past the bound instead of buffering to EOF.
func TestRouterBoundsUpstreamBody(t *testing.T) {
	ss, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.CandidateShards("sedan")) != 2 {
		t.Fatal("precondition: \"sedan\" must route to both shards")
	}
	for _, failOpen := range []bool{false, true} {
		t.Run(fmt.Sprintf("failOpen=%v", failOpen), func(t *testing.T) {
			urls := make([]string, 2)
			for i := range urls {
				h := NewShard(ss.Projection(i), Options{}).Handler()
				if i == 1 {
					inner := h
					h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						if r.URL.Path != "/v1/search" {
							inner.ServeHTTP(w, r)
							return
						}
						chunk := bytes.Repeat([]byte{'x'}, 64<<10)
						for left := maxUpstreamBytes + 1; left > 0; left -= len(chunk) {
							if _, err := w.Write(chunk[:min(left, len(chunk))]); err != nil {
								return
							}
						}
						w.(http.Flusher).Flush()
						<-r.Context().Done()
					})
				}
				backTS := httptest.NewServer(h)
				t.Cleanup(backTS.Close)
				urls[i] = backTS.URL
			}
			const readTimeout = 30 * time.Second
			rt, err := NewRouter(RouterOptions{Backends: urls, FailOpen: failOpen, Timeout: readTimeout})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			routerTS := httptest.NewServer(rt.Handler())
			t.Cleanup(routerTS.Close)

			start := time.Now()
			status, body := getRaw(t, routerTS.Client(), routerTS.URL+"/v1/search?q=sedan&limit=5")
			if elapsed := time.Since(start); elapsed > readTimeout/2 {
				t.Fatalf("oversize body answered after %v: the router read toward EOF instead of stopping at the bound", elapsed)
			}
			if !failOpen {
				if status != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("[1]")) {
					t.Fatalf("fail-closed with an oversize shard 1 body = %d: %s", status, body)
				}
				return
			}
			var parsed struct {
				Partial bool  `json:"partial"`
				Missing []int `json:"missing_shards"`
			}
			if err := json.Unmarshal(body, &parsed); err != nil {
				t.Fatalf("%v: %s", err, body)
			}
			if status != 200 || !parsed.Partial || len(parsed.Missing) != 1 || parsed.Missing[0] != 1 {
				t.Fatalf("fail-open with an oversize shard 1 body = %d: %s, want 200 partial on shard 1", status, body)
			}
		})
	}
}

// TestRouterIngestAllOrNothing: the delta-log ingest's generation
// accounting. A batch every replica rejects deterministically surfaces as
// that same client-fault status; a logged batch that applies on some
// replicas but not others is a 502 bad_upstream naming exactly which
// shards applied.
func TestRouterIngestAllOrNothing(t *testing.T) {
	ss, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Backend 0 applies batches; backend 1 can be switched to fail.
	var backend1Fails atomic.Bool
	mkIngester := func(i int, lineage *ontology.ShardedSnapshot, failable bool) func(delta.Batch, wal.Record) (*ontology.ShardProjection, *delta.Delta, []bool, error) {
		cur := lineage
		n := 0
		return func(b delta.Batch, _ wal.Record) (*ontology.ShardProjection, *delta.Delta, []bool, error) {
			if b.Day == 0 {
				return nil, nil, nil, fmt.Errorf("empty batch: %w", delta.ErrInvalidBatch)
			}
			if failable && backend1Fails.Load() {
				return nil, nil, nil, fmt.Errorf("mining invariant violated")
			}
			n++
			d := &delta.Delta{Day: b.Day, Add: []delta.NodeAdd{{Type: ontology.Concept, Phrase: fmt.Sprintf("hybrid sedans %d", n), Day: b.Day}}}
			next, touched, err := delta.ApplySharded(cur, d)
			if err != nil {
				return nil, nil, nil, err
			}
			cur = next
			return next.Projection(i), d, touched, nil
		}
	}
	urls := make([]string, 2)
	walDir := t.TempDir()
	for i := 0; i < 2; i++ {
		srv := NewShard(ss.Projection(i), Options{
			ShardIngest: mkIngester(i, ss, i == 1),
		})
		followLog(t, walDir, srv)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	rt, err := NewRouter(RouterOptions{Backends: urls, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	routerTS := httptest.NewServer(rt.Handler())
	defer routerTS.Close()

	// Healthy ingest: merged generations and touched shards.
	out := postJSON(t, routerTS.Client(), routerTS.URL+"/v1/ingest", `{"day":12}`, 200)
	touched, ok := out["touched_shards"].([]any)
	if !ok || len(touched) != 1 {
		t.Fatalf("touched_shards = %v", out["touched_shards"])
	}
	home := int(touched[0].(float64))
	gens := out["shard_generations"].([]any)
	for i, g := range gens {
		want := 0.0 // no batch has changed the shard
		if i == home {
			want = 1.0 // the batch at log position 1 changed it
		}
		if g.(float64) != want {
			t.Fatalf("shard %d generation %v, want %v (%v)", i, g, want, gens)
		}
	}

	// Deterministic rejection: every replica 422s, the router forwards it.
	postJSON(t, routerTS.Client(), routerTS.URL+"/v1/ingest", `{}`, http.StatusUnprocessableEntity)
	// Malformed JSON: the router rejects it before the log.
	postJSON(t, routerTS.Client(), routerTS.URL+"/v1/ingest", `{nope`, http.StatusBadRequest)

	// Divergence: backend 1 hits an internal failure on a logged batch.
	// The router must refuse to report merged generations and name it.
	backend1Fails.Store(true)
	resp, err := routerTS.Client().Post(routerTS.URL+"/v1/ingest", "application/json", bytes.NewReader([]byte(`{"day":13}`)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("diverged application = %d, want 502: %s", resp.StatusCode, body)
	}
	assertEnvelope(t, body, codeBadUpstream)
	var parsed struct {
		Shards []struct {
			Shard   int  `json:"shard"`
			Applied bool `json:"applied"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil || len(parsed.Shards) != 2 {
		t.Fatalf("partial-application detail: %v %s", err, body)
	}
	if !parsed.Shards[0].Applied || parsed.Shards[1].Applied {
		t.Fatalf("applied flags wrong: %s", body)
	}

	// GET is rejected without touching any backend.
	status, _ := getRaw(t, routerTS.Client(), routerTS.URL+"/v1/ingest")
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest = %d", status)
	}
}

// TestRouterAppEndpoints: the application endpoints answer through the
// scatter-gather merge, and a story seed whose home shard is down answers
// 502 even under fail-open — with the one shard that could hold the
// canonical phrase unreachable, "not found" would be a guess.
func TestRouterAppEndpoints(t *testing.T) {
	flaky, routerTS, _ := newFaultFixture(t, 2, true)
	c := routerTS.Client()

	rw := getJSON(t, c, routerTS.URL+"/v1/query/rewrite?q=best+family+sedans", 200)
	if rw["query"] != "best family sedans" {
		t.Fatalf("rewrite through router = %v", rw)
	}
	story := getJSON(t, c, routerTS.URL+"/v1/story?seed=brand+unveils+sedan+model+a", 200)
	if story["seed"] != "brand unveils sedan model a" {
		t.Fatalf("story through router = %v", story)
	}
	tag := getJSON(t, c, routerTS.URL+"/v1/tag?title=best+family+sedans+roundup", 200)
	if _, ok := tag["concepts"]; !ok {
		t.Fatalf("tag through router = %v", tag)
	}

	// The seed resolves against HomeShard(Event, seed); kill that shard.
	target := ontology.HomeShard(ontology.Event, "brand unveils sedan model a", 2)
	flaky[target].down.Store(true)
	status, body := getRaw(t, c, routerTS.URL+"/v1/story?seed=brand+unveils+sedan+model+a")
	if status != http.StatusBadGateway {
		t.Fatalf("story with dead home shard = %d: %s", status, body)
	}
}

// TestShardFileFormatEquivalence is the shard-file serving pin: the same
// shard booted from a GIANTBIN artifact and from the in-memory projection
// it was written from must be indistinguishable — byte for byte on
// /v1/search and /v1/node at the backend, and byte for byte on the
// router's merged /v1/search, /v1/node and /v1/stats when a whole fleet
// boots from each. This is the exact giantd -shard i/k -in
// shard-i-of-k.bin boot path: artifacts are written to disk and loaded
// back through ontology.LoadShardFile.
func TestShardFileFormatEquivalence(t *testing.T) {
	const k = 2
	union := testOntology(0).Snapshot()
	ss, err := ontology.ShardSnapshot(union, k)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	type fleet struct {
		backendTS []*httptest.Server
		routerTS  *httptest.Server
	}
	boot := func(proj func(i int) *ontology.ShardProjection) fleet {
		var fl fleet
		urls := make([]string, k)
		for i := 0; i < k; i++ {
			ts := httptest.NewServer(NewShard(proj(i), Options{}).Handler())
			t.Cleanup(ts.Close)
			fl.backendTS = append(fl.backendTS, ts)
			urls[i] = ts.URL
		}
		rt, err := NewRouter(RouterOptions{Backends: urls})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		fl.routerTS = httptest.NewServer(rt.Handler())
		t.Cleanup(fl.routerTS.Close)
		return fl
	}
	memFleet := boot(ss.Projection)
	binFleet := boot(func(i int) *ontology.ShardProjection {
		path := fmt.Sprintf("%s/shard-%d-of-%d.bin", dir, i, k)
		if err := ss.Projection(i).SaveBinaryFile(path); err != nil {
			t.Fatalf("save %s: %v", path, err)
		}
		proj, err := ontology.LoadShardFile(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		return proj
	})

	var paths []string
	for _, n := range union.Nodes() {
		v := url.Values{}
		v.Set("phrase", n.Phrase)
		paths = append(paths, "/v1/node?"+v.Encode(), fmt.Sprintf("/v1/node?id=%d", n.ID))
		v.Set("type", n.Type.String())
		paths = append(paths, "/v1/node?"+v.Encode())
		for _, a := range n.Aliases {
			av := url.Values{}
			av.Set("phrase", a)
			av.Set("type", n.Type.String())
			paths = append(paths, "/v1/node?"+av.Encode())
		}
	}
	for _, q := range []string{"sedan", "model", "a", "zzz-no-hit"} {
		for _, limit := range []string{"1", "5", "100"} {
			paths = append(paths, "/v1/search?"+url.Values{"q": {q}, "limit": {limit}}.Encode())
		}
	}

	same := func(what, memURL, binURL, path string) {
		t.Helper()
		mStatus, mBody := getRaw(t, http.DefaultClient, memURL+path)
		bStatus, bBody := getRaw(t, http.DefaultClient, binURL+path)
		if mStatus != bStatus || !bytes.Equal(mBody, bBody) {
			t.Fatalf("%s %s: file-booted fleet diverges\nin-memory (%d): %s\nbinary (%d):    %s",
				what, path, mStatus, mBody, bStatus, bBody)
		}
	}
	for _, p := range paths {
		same("router", memFleet.routerTS.URL, binFleet.routerTS.URL, p)
		for i := 0; i < k; i++ {
			same(fmt.Sprintf("backend %d", i), memFleet.backendTS[i].URL, binFleet.backendTS[i].URL, p)
		}
	}
	// The routers' merged stats are fully deterministic: byte-identical.
	same("router", memFleet.routerTS.URL, binFleet.routerTS.URL, "/v1/stats")
	// Backend stats embed a load timestamp; everything else must agree.
	for i := 0; i < k; i++ {
		m := getJSON(t, http.DefaultClient, memFleet.backendTS[i].URL+"/v1/stats", 200)
		b := getJSON(t, http.DefaultClient, binFleet.backendTS[i].URL+"/v1/stats", 200)
		delete(m, "loaded_at")
		delete(b, "loaded_at")
		if !reflect.DeepEqual(m, b) {
			t.Fatalf("backend %d stats diverge\nin-memory: %v\nbinary:    %v", i, m, b)
		}
	}
}

// TestRouterRejectsSwappedBackends: a -backends list in the wrong shard
// order is visible from the outside. /healthz marks every misplaced
// backend unhealthy with the shard it serves and reports the fleet
// degraded, and /v1/stats answers 502 bad_upstream naming slot 0. The
// same two backends in shard order are healthy.
func TestRouterRejectsSwappedBackends(t *testing.T) {
	const k = 2
	ss, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), k)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, k)
	for i := range urls {
		ts := httptest.NewServer(NewShard(ss.Projection(i), Options{}).Handler())
		defer ts.Close()
		urls[i] = ts.URL
	}
	router := func(backends ...string) *httptest.Server {
		rt, err := NewRouter(RouterOptions{Backends: backends})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		ts := httptest.NewServer(rt.Handler())
		t.Cleanup(ts.Close)
		return ts
	}

	ordered := router(urls[0], urls[1])
	if h := getJSON(t, ordered.Client(), ordered.URL+"/healthz", 200); h["status"] != "ok" {
		t.Fatalf("healthz over ordered backends = %v", h)
	}

	swapped := router(urls[1], urls[0])
	h := getJSON(t, swapped.Client(), swapped.URL+"/healthz", 200)
	if h["status"] != "degraded" {
		t.Fatalf("healthz over swapped backends: status %v, want degraded", h["status"])
	}
	backends, _ := h["backends"].([]any)
	if len(backends) != k {
		t.Fatalf("healthz backends = %v", h["backends"])
	}
	for i, b := range backends {
		b := b.(map[string]any)
		want := fmt.Sprintf("backend %d serves shard %d/2, want %d/2 (check -backends order)", i, 1-i, i)
		if b["healthy"] != false || b["error"] != want {
			t.Fatalf("healthz backend %d = %v, want unhealthy with %q", i, b, want)
		}
	}

	st := getJSON(t, swapped.Client(), swapped.URL+"/v1/stats", http.StatusBadGateway)
	e, _ := st["error"].(map[string]any)
	if e["code"] != codeBadUpstream || e["shard"] != float64(0) || e["message"] != "backend 0 serves shard 1/2, want 0/2 (check -backends order)" {
		t.Fatalf("stats over swapped backends = %v", st)
	}
}

// TestRouterNodeRejectsBrokenShard: a shard that answers /v1/node with a
// body that does not decode is broken, not missing. A scattered lookup
// answers 502 bad_upstream naming it under either degraded-mode policy —
// not 503 "unavailable" (fail-closed), and not a lower-precedence winner
// from the other shards with no partial marker (fail-open).
func TestRouterNodeRejectsBrokenShard(t *testing.T) {
	ss, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, failOpen := range []bool{false, true} {
		t.Run(fmt.Sprintf("failOpen=%v", failOpen), func(t *testing.T) {
			urls := make([]string, 2)
			for i := range urls {
				h := NewShard(ss.Projection(i), Options{}).Handler()
				if i == 1 {
					good := h
					h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						if r.URL.Path != "/v1/node" {
							good.ServeHTTP(w, r)
							return
						}
						w.Header().Set("Content-Type", "application/json")
						w.Write([]byte(`{"node": garbage`))
					})
				}
				ts := httptest.NewServer(h)
				t.Cleanup(ts.Close)
				urls[i] = ts.URL
			}
			rt, err := NewRouter(RouterOptions{Backends: urls, FailOpen: failOpen})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			routerTS := httptest.NewServer(rt.Handler())
			t.Cleanup(routerTS.Close)
			for _, path := range []string{"/v1/node?phrase=sedan+model+a", "/v1/node?phrase=sedans+for+families&type=concept"} {
				status, body := getRaw(t, routerTS.Client(), routerTS.URL+path)
				if status != http.StatusBadGateway {
					t.Fatalf("%s = %d, want 502: %s", path, status, body)
				}
				assertEnvelope(t, body, codeBadUpstream)
				var parsed struct {
					Error struct {
						Shard *int `json:"shard"`
					} `json:"error"`
				}
				if err := json.Unmarshal(body, &parsed); err != nil || parsed.Error.Shard == nil || *parsed.Error.Shard != 1 {
					t.Fatalf("%s: the 502 does not name shard 1: %s", path, body)
				}
			}
		})
	}
}

// statsGate wraps a backend and counts its /v1/stats requests. While
// entered is non-nil, the first one signals it and waits for release
// before it is served.
type statsGate struct {
	h                http.Handler
	calls            atomic.Int64
	entered, release chan struct{}
	once             sync.Once
}

func (g *statsGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/stats" {
		g.calls.Add(1)
		if g.entered != nil {
			g.once.Do(func() {
				close(g.entered)
				<-g.release
			})
		}
	}
	g.h.ServeHTTP(w, r)
}

// TestRouterMemoBuildStraddlingInvalidate: a memo build whose fan-out
// straddles an invalidate is served to the read that ran it, but never to
// a later one. One backend's /v1/stats — the routing-index build — is
// held across a routed ingest. The read that ran the build prunes to no
// shard, so nothing in it can notice the stale grams; the next read must
// rebuild the index rather than trust grams read before the write.
func TestRouterMemoBuildStraddlingInvalidate(t *testing.T) {
	_, flaky, routerTS := newScriptedRouterFixture(t, 2, false)
	gates := make([]*statsGate, len(flaky))
	for i, f := range flaky {
		gates[i] = &statsGate{h: f.h}
		f.h = gates[i]
	}
	gates[1].entered, gates[1].release = make(chan struct{}), make(chan struct{})
	statsCalls := func() int64 { return gates[0].calls.Load() + gates[1].calls.Load() }
	c := routerTS.Client()

	miss := make(chan error, 1)
	go func() {
		resp, err := c.Get(routerTS.URL + "/v1/search?q=zzz-none&limit=5")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		miss <- err
	}()
	<-gates[1].entered
	postJSON(t, c, routerTS.URL+"/v1/ingest", `{"day":1}`, 200)
	close(gates[1].release)
	if err := <-miss; err != nil {
		t.Fatalf("the read that built the index across the ingest: %v", err)
	}

	before := statsCalls()
	routedStatus, routed := getRaw(t, c, routerTS.URL+"/v1/search?q=cache&limit=5")
	if statsCalls() == before {
		t.Fatal("the next read reused a routing index built across an ingest")
	}
	fullStatus, full := getRaw(t, c, routerTS.URL+"/v1/search?q=cache&limit=5&scatter=full")
	if routedStatus != 200 || fullStatus != 200 || !bytes.Equal(routed, full) || !bytes.Contains(routed, []byte("cache sedans 1")) {
		t.Fatalf("routed (%d) %s, scatter=full (%d) %s", routedStatus, routed, fullStatus, full)
	}
}
