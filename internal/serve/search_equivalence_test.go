package serve

// The scatter-gather search pin: the sharded read path — term-gram shard
// routing, per-shard match cursors merged through the current union, and
// across processes the router's merge of per-shard partials — must
// be byte-identical to the plain single-snapshot scan, for every shard count, every limit, cold and
// warm, and through day-by-day ingest replay. The harness is
// property-style: randomized (but seed-pinned) workloads of hit-heavy,
// miss-heavy, prefix-shared and alias-typed queries, replayed against a
// reference New(snap) server over the identical world.
//
// The same file hammers concurrent search against live ingest (every 200 body must equal SOME
// published generation's answer — a cache/union mismatch cannot hide),
// and covers the router: per-shard limit plumbing, routing-index
// invalidation on writes vs ?scatter=full, and that a consulted shard's
// outage always surfaces as partial or 503.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"giant/internal/delta"
	"giant/internal/ontology"
	"giant/internal/wal"
)

// corpusWords share prefixes on purpose: "so"/"sol"/"son" style queries
// must exercise gram pruning at every specificity level.
var corpusWords = []string{
	"solar", "solaris", "solstice", "sonar", "sonata", "sonnet",
	"panel", "panther", "pantheon", "rover", "rocket", "rocker",
	"engine", "enigma", "ember", "embark",
}

// randomSearchCorpus builds a seed-pinned ontology of n nodes with
// prefix-sharing phrases and aliases on every fourth node.
func randomSearchCorpus(r *rand.Rand, n int) *ontology.Ontology {
	o := ontology.New()
	for i := 0; i < n; i++ {
		typ := ontology.Concept
		if i%3 == 0 {
			typ = ontology.Entity
		}
		phrase := fmt.Sprintf("%s %s %d",
			corpusWords[r.Intn(len(corpusWords))], corpusWords[r.Intn(len(corpusWords))], i)
		id := o.AddNode(typ, phrase)
		if i%4 == 0 {
			o.AddAlias(id, fmt.Sprintf("aka %s %d", corpusWords[r.Intn(len(corpusWords))], i))
		}
	}
	return o
}

// searchWorkloads derives the four query families from the live node
// set: substrings of phrases (hit-heavy), gibberish (miss-heavy), word
// prefixes at every length (prefix-shared) and substrings of aliases
// (alias-typed — matches reach the node only through its alias).
func searchWorkloads(r *rand.Rand, nodes []ontology.Node) map[string][]string {
	w := map[string][]string{}
	for i := 0; i < 12 && len(nodes) > 0; i++ {
		p := nodes[r.Intn(len(nodes))].Phrase
		start := r.Intn(len(p))
		max := len(p) - start
		if max > 6 {
			max = 6
		}
		w["hit-heavy"] = append(w["hit-heavy"], p[start:start+1+r.Intn(max)])
	}
	for i := 0; i < 8; i++ {
		w["miss-heavy"] = append(w["miss-heavy"], fmt.Sprintf("zq%dxv", r.Intn(1000)))
	}
	for _, word := range corpusWords {
		for _, l := range []int{2, 4, len(word)} {
			w["prefix-shared"] = append(w["prefix-shared"], word[:l])
		}
	}
	var aliases []string
	for i := range nodes {
		aliases = append(aliases, nodes[i].Aliases...)
	}
	for i := 0; i < 8 && len(aliases) > 0; i++ {
		a := aliases[r.Intn(len(aliases))]
		start := r.Intn(len(a))
		max := len(a) - start
		if max > 5 {
			max = 5
		}
		w["alias-typed"] = append(w["alias-typed"], a[start:start+1+r.Intn(max)])
	}
	return w
}

// assertSearchEquivalent compares one query across the reference and the
// sharded deployment, byte for byte, for every pinned limit.
func assertSearchEquivalent(t *testing.T, refTS, gotTS *httptest.Server, family, q string) {
	t.Helper()
	for _, limit := range []int{1, 2, 4} {
		v := url.Values{}
		v.Set("q", q)
		v.Set("limit", fmt.Sprint(limit))
		path := "/v1/search?" + v.Encode()
		refStatus, refBody := getRaw(t, refTS.Client(), refTS.URL+path)
		gotStatus, gotBody := getRaw(t, gotTS.Client(), gotTS.URL+path)
		if refStatus != gotStatus || !bytes.Equal(refBody, gotBody) {
			t.Fatalf("%s %s: sharded (%d) %s != reference (%d) %s",
				family, path, gotStatus, gotBody, refStatus, refBody)
		}
	}
}

// TestSearchEquivalenceRandomized: for K ∈ {1, 2, 4}, a NewSharded server
// answers every workload query identically to a plain New server over the
// same snapshot — twice, so the second pass reads the partials the first
// pass cached.
func TestSearchEquivalenceRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	snap := randomSearchCorpus(r, 120).Snapshot()
	workloads := searchWorkloads(r, snap.Nodes())
	refTS := httptest.NewServer(New(snap, Options{}).Handler())
	t.Cleanup(refTS.Close)

	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			ss, err := ontology.ShardSnapshot(snap, k)
			if err != nil {
				t.Fatal(err)
			}
			gotTS := httptest.NewServer(NewSharded(ss, Options{}).Handler())
			t.Cleanup(gotTS.Close)
			for pass := 0; pass < 2; pass++ {
				for family, queries := range workloads {
					for _, q := range queries {
						assertSearchEquivalent(t, refTS, gotTS, family, q)
					}
				}
			}
		})
	}
}

// replayDelta is the deterministic synthetic ingest script shared by the
// replay and hammer tests: adds two matching nodes per day (one aliased),
// an IsA edge on day 4, and a retirement on day 6 — the retirement is the
// dangerous case, because it renumbers union IDs under every shard's
// carried partials.
func replayDelta(day int) *delta.Delta {
	switch {
	case day == 4:
		return &delta.Delta{Day: day, Edges: []delta.EdgeAdd{{
			SrcType: ontology.Concept, Src: "replay sonata 1",
			DstType: ontology.Concept, Dst: "replay sonata 2",
			Type: ontology.IsA, Weight: 1,
		}}}
	case day == 6:
		return &delta.Delta{Day: day, Retire: []delta.Ref{{Type: ontology.Concept, Phrase: "replay sonata 2"}}}
	default:
		return &delta.Delta{Day: day, Add: []delta.NodeAdd{
			{Type: ontology.Concept, Phrase: fmt.Sprintf("replay sonata %d", day), Day: day,
				Aliases: []string{fmt.Sprintf("aka replay %d", day)}},
			{Type: ontology.Entity, Phrase: fmt.Sprintf("replay panther %d", day), Day: day},
		}}
	}
}

// TestSearchEquivalenceIngestReplay replays the synthetic delta script
// day by day through a refWorld for K ∈ {1, 2, 4}; after every day, the
// NewSharded server over the evolved world must answer each workload query
// byte-identically to a fresh reference server over its union — cold and
// from the partials the first pass cached.
func TestSearchEquivalenceIngestReplay(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	base := randomSearchCorpus(r, 60).Snapshot()
	queries := []string{"son", "replay", "panther", "aka replay", "zqnope", "sonata 1"}
	const maxDay = 8

	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			ss, err := ontology.ShardSnapshot(base, k)
			if err != nil {
				t.Fatal(err)
			}
			lineage := ss
			ref := newRefWorld(t, ss, func(b delta.Batch) (*ontology.ShardedSnapshot, *delta.Delta, []bool, error) {
				d := replayDelta(b.Day)
				next, touched, err := delta.ApplySharded(lineage, d)
				if err == nil {
					lineage = next
				}
				return next, d, touched, err
			}, Options{})

			for day := 1; day <= maxDay; day++ {
				ref.step(fmt.Sprintf(`{"day":%d}`, day))
				refTS := httptest.NewServer(New(ref.current().Current(), Options{}).Handler())
				for pass := 0; pass < 2; pass++ {
					for _, q := range queries {
						assertSearchEquivalent(t, refTS, ref.Server, fmt.Sprintf("day %d", day), q)
					}
				}
				refTS.Close()
			}
		})
	}
}

// searchHasPhrase reports whether a decoded /v1/search body contains a
// result with the given phrase.
func searchHasPhrase(body map[string]any, phrase string) bool {
	results, _ := body["results"].([]any)
	for _, r := range results {
		if m, ok := r.(map[string]any); ok && m["phrase"] == phrase {
			return true
		}
	}
	return false
}

// hitsOf renders a union search result in the /v1/search wire shape.
func hitsOf(ns []ontology.Node) []searchHit {
	hits := make([]searchHit, 0, len(ns))
	for i := range ns {
		hits = append(hits, searchHit{ID: ns[i].ID, Type: ns[i].Type.String(), Phrase: ns[i].Phrase})
	}
	return hits
}

func hitsEqual(a, b []searchHit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSearchShardedHammerConcurrentIngest hammers /v1/search from four
// readers while a writer replays the synthetic delta script (including
// the union-renumbering retirement on day 6). Every published world is
// precomputed, so the pin is exact: each reader response must be a 200
// whose hits equal SOME published generation's union scan — a partial
// cache merged against the wrong union could not produce one — and no
// request may see a 5xx.
func TestSearchShardedHammerConcurrentIngest(t *testing.T) {
	const k, maxDay = 4, 10
	base := testOntology(0).Snapshot()
	ss, err := ontology.ShardSnapshot(base, k)
	if err != nil {
		t.Fatal(err)
	}
	// Precompute every world the server will publish (the ingester replays
	// the same script) and each probe's expected hits per world.
	type probe struct {
		q     string
		limit int
	}
	probes := []probe{{"sedan", 3}, {"replay", 5}, {"model", 3}, {"sonata", 5}}
	worlds := []*ontology.ShardedSnapshot{ss}
	for day, lin := 1, ss; day <= maxDay; day++ {
		next, _, err := delta.ApplySharded(lin, replayDelta(day))
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		worlds, lin = append(worlds, next), next
	}
	expected := make([][][]searchHit, len(probes))
	for pi, p := range probes {
		expected[pi] = make([][]searchHit, len(worlds))
		for wi, w := range worlds {
			expected[pi][wi] = hitsOf(w.Union().Search(p.q, p.limit))
		}
	}

	lineage := ss
	ts := newRefWorld(t, ss, func(b delta.Batch) (*ontology.ShardedSnapshot, *delta.Delta, []bool, error) {
		d := replayDelta(b.Day)
		next, touched, err := delta.ApplySharded(lineage, d)
		if err == nil {
			lineage = next
		}
		return next, d, touched, err
	}, Options{CacheSize: 64})

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := ts.Client()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := probes[(g+i)%len(probes)]
				resp, err := c.Get(fmt.Sprintf("%s/v1/search?q=%s&limit=%d", ts.URL, url.QueryEscape(p.q), p.limit))
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				var parsed struct {
					Count   int         `json:"count"`
					Results []searchHit `json:"results"`
				}
				decodeErr := json.NewDecoder(resp.Body).Decode(&parsed)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("reader %d: q=%q status %d", g, p.q, resp.StatusCode)
					return
				}
				if decodeErr != nil {
					t.Errorf("reader %d: q=%q decode: %v", g, p.q, decodeErr)
					return
				}
				pi := (g + i) % len(probes)
				match := false
				for _, want := range expected[pi] {
					if hitsEqual(parsed.Results, want) {
						match = true
						break
					}
				}
				if !match || parsed.Count != len(parsed.Results) {
					t.Errorf("reader %d: q=%q limit=%d: hits %v match no published generation", g, p.q, p.limit, parsed.Results)
					return
				}
			}
		}(g)
	}
	for day := 1; day <= maxDay; day++ {
		ts.step(fmt.Sprintf(`{"day":%d}`, day))
		time.Sleep(2 * time.Millisecond)
	}
	close(done)
	wg.Wait()

	// Quiesced: the served answers equal the final world's.
	for pi, p := range probes {
		body := getJSON(t, ts.Client(), fmt.Sprintf("%s/v1/search?q=%s&limit=%d", ts.URL, url.QueryEscape(p.q), p.limit), 200)
		var got []searchHit
		raw, _ := json.Marshal(body["results"])
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if !hitsEqual(got, expected[pi][len(worlds)-1]) {
			t.Fatalf("q=%q: final hits %v, want %v", p.q, got, expected[pi][len(worlds)-1])
		}
	}
}

// searchRecorder wraps a backend handler, recording every /v1/search
// request's limit parameter and its response's result count.
type searchRecorder struct {
	h      http.Handler
	mu     sync.Mutex
	limits []string
	counts []int
}

func (sr *searchRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/search" {
		sr.h.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	sr.h.ServeHTTP(rec, r)
	var parsed struct {
		Count int `json:"count"`
	}
	_ = json.Unmarshal(rec.Body.Bytes(), &parsed)
	sr.mu.Lock()
	sr.limits = append(sr.limits, r.URL.Query().Get("limit"))
	sr.counts = append(sr.counts, parsed.Count)
	sr.mu.Unlock()
	for key, vals := range rec.Header() {
		w.Header()[key] = vals
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// TestRouterPerShardSearchLimit is the limit-plumbing regression pin: a
// routed search forwards the validated limit to every consulted backend,
// each per-shard response respects it, and the merged body still equals
// the in-process sharded scan.
func TestRouterPerShardSearchLimit(t *testing.T) {
	const k, limit = 2, 2
	o := ontology.New()
	for i := 0; i < 30; i++ {
		o.AddNode(ontology.Concept, fmt.Sprintf("gadget widget %d", i))
	}
	snap := o.Snapshot()
	perShard := make([]int, k)
	for _, n := range snap.Nodes() {
		perShard[ontology.HomeShard(n.Type, n.Phrase, k)]++
	}
	for i, c := range perShard {
		if c <= limit {
			t.Fatalf("corpus too lopsided: shard %d holds %d nodes", i, c)
		}
	}
	ss, err := ontology.ShardSnapshot(snap, k)
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(NewSharded(ss, Options{}).Handler())
	defer refTS.Close()
	recorders := make([]*searchRecorder, k)
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		recorders[i] = &searchRecorder{h: NewShard(ss.Projection(i), Options{}).Handler()}
		backTS := httptest.NewServer(recorders[i])
		defer backTS.Close()
		urls[i] = backTS.URL
	}
	rt, err := NewRouter(RouterOptions{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	routerTS := httptest.NewServer(rt.Handler())
	defer routerTS.Close()

	path := fmt.Sprintf("/v1/search?q=widget&limit=%d", limit)
	refStatus, refBody := getRaw(t, refTS.Client(), refTS.URL+path)
	gotStatus, gotBody := getRaw(t, routerTS.Client(), routerTS.URL+path)
	if refStatus != 200 || gotStatus != 200 || !bytes.Equal(refBody, gotBody) {
		t.Fatalf("router (%d) %s != in-process (%d) %s", gotStatus, gotBody, refStatus, refBody)
	}
	for i, rec := range recorders {
		rec.mu.Lock()
		limits, counts := rec.limits, rec.counts
		rec.mu.Unlock()
		if len(limits) == 0 {
			t.Fatalf("shard %d was never consulted for %s", i, path)
		}
		for j := range limits {
			if limits[j] != fmt.Sprint(limit) {
				t.Fatalf("shard %d request %d carried limit %q, want %d", i, j, limits[j], limit)
			}
			if counts[j] > limit {
				t.Fatalf("shard %d response %d returned %d hits, limit %d", i, j, counts[j], limit)
			}
		}
	}
}

// TestSearchLimitClamp: a limit above maxSearchResults clamps to exactly
// 100 hits on a whole-world server, on a per-shard backend and at a K=2
// router, the routed body equals the whole-world one, and both servers
// report the cap in /v1/stats.
func TestSearchLimitClamp(t *testing.T) {
	const k = 2
	o := ontology.New()
	for i := 0; i < 300; i++ {
		o.AddNode(ontology.Entity, fmt.Sprintf("needle gizmo %03d", i))
	}
	snap := o.Snapshot()
	ss, err := ontology.ShardSnapshot(snap, k)
	if err != nil {
		t.Fatal(err)
	}
	wholeTS := httptest.NewServer(New(snap, Options{}).Handler())
	defer wholeTS.Close()
	urls := make([]string, k)
	for i := range urls {
		backTS := httptest.NewServer(NewShard(ss.Projection(i), Options{}).Handler())
		defer backTS.Close()
		urls[i] = backTS.URL
	}
	rt, err := NewRouter(RouterOptions{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	routerTS := httptest.NewServer(rt.Handler())
	defer routerTS.Close()

	const path = "/v1/search?q=needle&limit=1000"
	hits := func(url string) (int, []byte) {
		t.Helper()
		status, body := getRaw(t, http.DefaultClient, url+path)
		var parsed struct {
			Count   int               `json:"count"`
			Results []json.RawMessage `json:"results"`
		}
		if status != http.StatusOK || json.Unmarshal(body, &parsed) != nil || parsed.Count != len(parsed.Results) {
			t.Fatalf("%s%s = %d: %s", url, path, status, body)
		}
		return len(parsed.Results), body
	}
	wholeN, wholeBody := hits(wholeTS.URL)
	routedN, routedBody := hits(routerTS.URL)
	if wholeN != maxSearchResults || routedN != maxSearchResults {
		t.Fatalf("limit=1000: whole-world %d hits, router %d, want %d", wholeN, routedN, maxSearchResults)
	}
	if !bytes.Equal(wholeBody, routedBody) {
		t.Fatalf("router body differs from whole-world\nrouter: %s\nwhole:  %s", routedBody, wholeBody)
	}
	for i, u := range urls {
		if home := ss.HomeCount(i); home <= maxSearchResults {
			t.Fatalf("corpus too lopsided: shard %d holds %d matches", i, home)
		}
		if n, _ := hits(u); n != maxSearchResults {
			t.Fatalf("shard %d: limit=1000 gave %d hits, want %d", i, n, maxSearchResults)
		}
	}
	for _, u := range []string{wholeTS.URL, urls[0]} {
		if got := getJSON(t, http.DefaultClient, u+"/v1/stats", 200)["max_search_results"]; got != float64(100) {
			t.Fatalf("%s /v1/stats max_search_results = %v, want 100", u, got)
		}
	}
}

// routerDelta is the routing-index test's ingest script: day 2 retires
// the day-1 node (renumbering union IDs), other days append.
func routerDelta(day int) *delta.Delta {
	if day == 2 {
		return &delta.Delta{Day: day, Retire: []delta.Ref{{Type: ontology.Concept, Phrase: "cache sedans 1"}}}
	}
	return &delta.Delta{Day: day, Add: []delta.NodeAdd{{Type: ontology.Concept, Phrase: fmt.Sprintf("cache sedans %d", day), Day: day}}}
}

// newScriptedRouterFixture boots K per-shard replicas (each with its own
// deterministic apply-lineage ingester, tailing one delta log) behind a
// router appending to that log, plus flaky wrappers for outage injection.
func newScriptedRouterFixture(t *testing.T, k int, failOpen bool) (*ontology.ShardedSnapshot, []*flakyBackend, *httptest.Server) {
	t.Helper()
	ss, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), k)
	if err != nil {
		t.Fatal(err)
	}
	flaky := make([]*flakyBackend, k)
	urls := make([]string, k)
	walDir := t.TempDir()
	for i := 0; i < k; i++ {
		lineage := ss
		shard := i
		back := NewShard(ss.Projection(i), Options{
			ShardIngest: func(b delta.Batch, _ wal.Record) (*ontology.ShardProjection, *delta.Delta, []bool, error) {
				d := routerDelta(b.Day)
				next, touched, err := delta.ApplySharded(lineage, d)
				if err != nil {
					return nil, nil, nil, err
				}
				lineage = next
				return next.Projection(shard), d, touched, nil
			},
		})
		followLog(t, walDir, back)
		flaky[i] = &flakyBackend{h: back.Handler()}
		backTS := httptest.NewServer(flaky[i])
		t.Cleanup(backTS.Close)
		urls[i] = backTS.URL
	}
	rt, err := NewRouter(RouterOptions{Backends: urls, WALDir: walDir, FailOpen: failOpen})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	routerTS := httptest.NewServer(rt.Handler())
	t.Cleanup(routerTS.Close)
	return ss, flaky, routerTS
}

// TestRouterRoutingIndexInvalidation pins the routing index against
// writes: a routed search equals a fresh ?scatter=full scatter before and
// after an append-only ingest and a retirement (union IDs renumber). Each
// write introduces a term the index built before it has never seen, so a
// surviving index would prune the shard that now holds it.
func TestRouterRoutingIndexInvalidation(t *testing.T) {
	_, _, routerTS := newScriptedRouterFixture(t, 2, false)
	c := routerTS.Client()

	assertRoutedMatchesScatter := func(q string, limit int) []byte {
		t.Helper()
		v := url.Values{}
		v.Set("q", q)
		v.Set("limit", fmt.Sprint(limit))
		routedStatus, routed := getRaw(t, c, routerTS.URL+"/v1/search?"+v.Encode())
		v.Set("scatter", "full")
		fullStatus, full := getRaw(t, c, routerTS.URL+"/v1/search?"+v.Encode())
		if routedStatus != 200 || fullStatus != 200 || !bytes.Equal(routed, full) {
			t.Fatalf("q=%q limit=%d: routed (%d) %s != scatter=full (%d) %s", q, limit, routedStatus, routed, fullStatus, full)
		}
		return routed
	}

	// Build the index: "cache" matches nothing yet.
	first := assertRoutedMatchesScatter("sedan", 5)
	second := assertRoutedMatchesScatter("sedan", 5)
	if !bytes.Equal(first, second) {
		t.Fatalf("repeated read diverged: %s vs %s", second, first)
	}
	assertRoutedMatchesScatter("cache", 5)

	// Append-only ingest: the new node's shard must be consulted.
	postJSON(t, c, routerTS.URL+"/v1/ingest", `{"day":1}`, 200)
	if body := assertRoutedMatchesScatter("cache", 100); !bytes.Contains(body, []byte("cache sedans 1")) {
		t.Fatalf("post-ingest routed search misses the ingested node: %s", body)
	}
	assertRoutedMatchesScatter("sedan", 100)

	// Retirement: union IDs renumber everywhere.
	postJSON(t, c, routerTS.URL+"/v1/ingest", `{"day":2}`, 200)
	if body := assertRoutedMatchesScatter("sedan", 100); bytes.Contains(body, []byte("cache sedans 1")) {
		t.Fatalf("post-retire routed search serves the retired node: %s", body)
	}
	for _, q := range []string{"sedan", "model", "cache", "zzz-none"} {
		for _, limit := range []int{1, 3, 5} {
			assertRoutedMatchesScatter(q, limit)
		}
	}
}

// TestRouterNeverMasksDownBackend: a consulted shard's outage surfaces on
// every read, however warm the router is. A search and a rewrite that
// reached both shards before the outage come back 200 "partial": true
// with missing_shards [1] under fail-open, and 503 under fail-closed.
func TestRouterNeverMasksDownBackend(t *testing.T) {
	paths := []string{"/v1/search?q=sedan&limit=5", "/v1/query/rewrite?q=sedan"}
	for _, failOpen := range []bool{false, true} {
		t.Run(fmt.Sprintf("failOpen=%v", failOpen), func(t *testing.T) {
			ss, flaky, routerTS := newScriptedRouterFixture(t, 2, failOpen)
			if len(ss.CandidateShards("sedan")) != 2 {
				t.Fatal("precondition: \"sedan\" must route to both shards")
			}
			c := routerTS.Client()
			for _, p := range paths {
				if status, body := getRaw(t, c, routerTS.URL+p); status != 200 || bytes.Contains(body, []byte(`"partial"`)) {
					t.Fatalf("%s warm-up: status %d body %s", p, status, body)
				}
			}
			flaky[1].down.Store(true)
			for _, p := range paths {
				status, body := getRaw(t, c, routerTS.URL+p)
				if !failOpen {
					if status != http.StatusServiceUnavailable {
						t.Fatalf("%s fail-closed during outage: status %d body %s, want 503", p, status, body)
					}
					continue
				}
				var parsed struct {
					Partial bool  `json:"partial"`
					Missing []int `json:"missing_shards"`
				}
				if err := json.Unmarshal(body, &parsed); err != nil {
					t.Fatalf("%s: %v: %s", p, err, body)
				}
				if status != 200 || !parsed.Partial || len(parsed.Missing) != 1 || parsed.Missing[0] != 1 {
					t.Fatalf("%s fail-open during outage: status %d body %s, want 200 partial on shard 1", p, status, body)
				}
			}
		})
	}
}

// genShifter wraps a backend and adds offset to every generation it
// reports — each "generation" field of the body and the
// X-Giant-Generation header — so the router sees a republish that never
// happened. With step set, the offset rises before every response. calls
// counts the requests it served.
type genShifter struct {
	h      http.Handler
	offset atomic.Uint64
	step   atomic.Bool
	calls  atomic.Int64
}

var generationField = regexp.MustCompile(`"generation":(\d+)`)

func (s *genShifter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.calls.Add(1)
	off := s.offset.Load()
	if s.step.Load() {
		off = s.offset.Add(1)
	}
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, r)
	shift := func(g []byte) []byte {
		n, err := strconv.ParseUint(string(g), 10, 64)
		if err != nil {
			return g
		}
		return strconv.AppendUint(nil, n+off, 10)
	}
	body := generationField.ReplaceAllFunc(rec.Body.Bytes(), func(m []byte) []byte {
		return append([]byte(`"generation":`), shift(generationField.FindSubmatch(m)[1])...)
	})
	for key, vals := range rec.Header() {
		w.Header()[key] = vals
	}
	if g := rec.Header().Get(genHeader); g != "" {
		w.Header().Set(genHeader, string(shift([]byte(g))))
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// TestRouterRetriesGenerationChurn drives the stale → invalidate → retry
// path of every memo-backed read. A backend that reports a generation its
// memos were not built at (one shift between the warm-up and the read)
// costs one retry, and the answer is byte-equal to an unshifted read. A
// backend whose generation moves on every response never agrees with a
// memo: tag, whose retry still scatters against the rebuilt concept
// index, answers 502 bad_upstream; search and rewrite retry with one
// unpruned scatter that reads through no memo, and story's retry only
// rebuilds the fragment list, which agrees with itself — so those three
// still answer 200.
func TestRouterRetriesGenerationChurn(t *testing.T) {
	_, flaky, routerTS := newScriptedRouterFixture(t, 2, false)
	shifters := make([]*genShifter, len(flaky))
	for i, f := range flaky {
		shifters[i] = &genShifter{h: f.h}
		f.h = shifters[i]
	}
	setShift := func(off uint64, step bool) {
		for _, s := range shifters {
			s.offset.Store(off)
			s.step.Store(step)
		}
	}
	calls := func() int64 {
		var n int64
		for _, s := range shifters {
			n += s.calls.Load()
		}
		return n
	}
	reads := []struct{ name, path string }{
		{"search", "/v1/search?q=sedan&limit=5"},
		{"tag", "/v1/tag?" + url.Values{"title": {"sedan model a wins award"}, "entities": {"Sedan Model A"}}.Encode()},
		{"rewrite", "/v1/query/rewrite?q=family+sedans"},
		{"story", "/v1/story?seed=brand+unveils+sedan+model+a"},
	}
	c := routerTS.Client()
	ref := map[string][]byte{}
	for _, rd := range reads {
		status, body := getRaw(t, c, routerTS.URL+rd.path)
		if status != http.StatusOK {
			t.Fatalf("%s: unshifted read = %d: %s", rd.name, status, body)
		}
		ref[rd.name] = body
	}
	read := func(path string) (int64, int, []byte) {
		t.Helper()
		before := calls()
		status, body := getRaw(t, c, routerTS.URL+path)
		return calls() - before, status, body
	}

	t.Run("one shift", func(t *testing.T) {
		for _, rd := range reads {
			setShift(0, false)
			// The first read may still see memos from the last shift; the
			// second rebuilds the rest, the third is served warm.
			var warm int64
			for i := 0; i < 3; i++ {
				n, status, body := read(rd.path)
				if status != http.StatusOK || !bytes.Equal(body, ref[rd.name]) {
					t.Fatalf("%s warm-up %d = %d: %s, want %s", rd.name, i, status, body, ref[rd.name])
				}
				warm = n
			}
			setShift(1, false)
			n, status, body := read(rd.path)
			if status != http.StatusOK || !bytes.Equal(body, ref[rd.name]) {
				t.Fatalf("%s after one shift = %d: %s, want %s", rd.name, status, body, ref[rd.name])
			}
			if n <= warm {
				t.Fatalf("%s after one shift made %d upstream calls, a warm read %d: the stale memo was never retried", rd.name, n, warm)
			}
		}
	})

	t.Run("shift on every response", func(t *testing.T) {
		setShift(0, true)
		defer setShift(0, false)
		for _, rd := range reads {
			_, status, body := read(rd.path)
			if rd.name != "tag" {
				if status != http.StatusOK || !bytes.Equal(body, ref[rd.name]) {
					t.Fatalf("%s under churn = %d: %s, want %s", rd.name, status, body, ref[rd.name])
				}
				continue
			}
			if status != http.StatusBadGateway {
				t.Fatalf("tag under churn = %d: %s, want 502", status, body)
			}
			assertEnvelope(t, body, codeBadUpstream)
		}
	})
}

// percentileNs returns the p-quantile of the samples in nanoseconds
// (nearest-rank over the sorted run).
func percentileNs(samples []time.Duration, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p*float64(len(s)-1) + 0.5)
	return float64(s[idx])
}

// BenchmarkServeSearchDistribution is the latency-distribution companion
// to BenchmarkServeSearch: the same 10k-node corpus and query mix, but
// each op is timed individually so p50/p95/p99 surface as metrics — a
// mean hides exactly the tail the routing index exists to fix. The sharded variant additionally reports the query mix's
// fan-out profile: average shards consulted per query after gram routing,
// and the fraction of queries that stop at a single shard.
func BenchmarkServeSearchDistribution(b *testing.B) {
	o := ontology.New()
	for i := 0; i < 5000; i++ {
		o.AddNode(ontology.Concept, fmt.Sprintf("concept number %d", i))
	}
	for i := 0; i < 5000; i++ {
		o.AddNode(ontology.Entity, fmt.Sprintf("entity number %d", i))
	}
	snap := o.Snapshot()
	ss, err := ontology.ShardSnapshot(snap, 4)
	if err != nil {
		b.Fatal(err)
	}
	queries := []string{"number 42", "number 999", "concept number 1", "entity", "no hit at all"}

	distribution := func(b *testing.B, search func(string, int) []ontology.Node) {
		samples := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			t0 := time.Now()
			search(q, 10)
			samples = append(samples, time.Since(t0))
		}
		b.ReportMetric(percentileNs(samples, 0.50), "p50-ns")
		b.ReportMetric(percentileNs(samples, 0.95), "p95-ns")
		b.ReportMetric(percentileNs(samples, 0.99), "p99-ns")
	}
	b.Run("snapshot", func(b *testing.B) { distribution(b, snap.Search) })
	b.Run("sharded=4", func(b *testing.B) {
		consulted, oneShard := 0, 0
		for _, q := range queries {
			c := len(ss.CandidateShards(strings.ToLower(q)))
			consulted += c
			if c == 1 {
				oneShard++
			}
		}
		distribution(b, ss.Search)
		b.ReportMetric(float64(consulted)/float64(len(queries)), "shards/query")
		b.ReportMetric(float64(oneShard)/float64(len(queries)), "1shard-ratio")
	})
}
