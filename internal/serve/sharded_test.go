package serve

import (
	"fmt"
	"io"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	"giant/internal/delta"
	"giant/internal/ontology"
)

// shardedServer builds a NewSharded server over the test ontology.
func shardedServer(t *testing.T, k int) (*Server, *httptest.Server) {
	t.Helper()
	ss, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), k)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewSharded(ss, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestShardedStatsAndHealth: /healthz reports the shard count and
// /v1/stats lists one per-shard generation entry per shard, with home
// node counts summing to the union.
func TestShardedStatsAndHealth(t *testing.T) {
	srv, ts := shardedServer(t, 3)
	c := ts.Client()

	h := getJSON(t, c, ts.URL+"/healthz", 200)
	if h["shards"].(float64) != 3 {
		t.Fatalf("healthz shards = %v", h["shards"])
	}
	stats := getJSON(t, c, ts.URL+"/v1/stats", 200)
	shards, ok := stats["shards"].([]any)
	if !ok || len(shards) != 3 {
		t.Fatalf("stats shards = %v", stats["shards"])
	}
	sum := 0.0
	for i, s := range shards {
		m := s.(map[string]any)
		if int(m["shard"].(float64)) != i {
			t.Fatalf("shard order broken: %v", shards)
		}
		if m["generation"].(float64) != 1 {
			t.Fatalf("initial per-shard generation = %v", m["generation"])
		}
		sum += m["nodes"].(float64)
	}
	if want := stats["nodes"].(float64); sum != want {
		t.Fatalf("per-shard home nodes sum to %v, union has %v", sum, want)
	}
	if srv.Current().NodeCount() != int(stats["nodes"].(float64)) {
		t.Fatal("union snapshot mismatch")
	}
}

// TestShardedSearchMatchesLegacy: the scatter-gather /v1/search returns
// exactly what the single-snapshot server returns, for every query.
func TestShardedSearchMatchesLegacy(t *testing.T) {
	_, shardedTS := shardedServer(t, 4)
	legacy := httptest.NewServer(New(testOntology(0).Snapshot(), Options{}).Handler())
	defer legacy.Close()

	for _, q := range []string{"sedan", "model", "sedan+model+a", "families", "zzz"} {
		for _, limit := range []int{1, 3, 50} {
			url := fmt.Sprintf("/v1/search?q=%s&limit=%d", q, limit)
			a := getJSON(t, shardedTS.Client(), shardedTS.URL+url, 200)
			b := getJSON(t, legacy.Client(), legacy.URL+url, 200)
			if !reflect.DeepEqual(a["results"], b["results"]) || a["count"] != b["count"] {
				t.Fatalf("search %s diverges: sharded %v vs legacy %v", url, a["results"], b["results"])
			}
		}
	}
}

// TestShardedIngestPublishesTouchedShardsOnly: an ingest whose delta
// touches a subset of shards bumps only those shards' generations — and
// after a rollback (which re-partitions the served world while the
// ingester keeps its own lineage) the next ingest republishes every shard
// whose served projection diverged, so a shard generation always
// identifies its content.
func TestShardedIngestPublishesTouchedShardsOnly(t *testing.T) {
	const k = 4
	ss, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), k)
	if err != nil {
		t.Fatal(err)
	}
	// The fake ingester mirrors giant.System: it advances its OWN sharded
	// lineage, which a serving-side rollback does not rewind.
	lineage := ss
	day := 0
	opts := Options{}
	opts.IngestSharded = func(b delta.Batch) (*ontology.ShardedSnapshot, *delta.Delta, []bool, error) {
		day++
		d := &delta.Delta{Day: b.Day, Add: []delta.NodeAdd{{Type: ontology.Concept, Phrase: fmt.Sprintf("hybrid sedans %d", day), Day: b.Day}}}
		next, touched, err := delta.ApplySharded(lineage, d)
		if err == nil {
			lineage = next
		}
		return next, d, touched, err
	}
	srv := NewSharded(ss, opts)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", `{"day":12}`, 200)
	touched, ok := resp["touched_shards"].([]any)
	if !ok || len(touched) != 1 {
		t.Fatalf("touched_shards = %v", resp["touched_shards"])
	}
	home := int(touched[0].(float64))
	if want := ontology.HomeShard(ontology.Concept, "hybrid sedans 1", k); home != want {
		t.Fatalf("touched shard %d, want home %d", home, want)
	}
	gens := resp["shard_generations"].([]any)
	for i, g := range gens {
		want := 1.0
		if i == home {
			want = 2.0
		}
		if g.(float64) != want {
			t.Fatalf("shard %d generation %v, want %v (gens %v)", i, g, want, gens)
		}
	}
	// The new node serves immediately from the union view.
	node := getJSON(t, ts.Client(), ts.URL+"/v1/node?phrase=hybrid+sedans+1", 200)
	if node["node"].(map[string]any)["phrase"] != "hybrid sedans 1" {
		t.Fatalf("ingested node not served: %v", node)
	}
	// Rollback reverts the served world (dropping the node) and
	// republishes every shard.
	postJSON(t, ts.Client(), ts.URL+"/v1/rollback", "", 200)
	getJSON(t, ts.Client(), ts.URL+"/v1/node?phrase=hybrid+sedans+1", 404)

	// The ingester's own lineage was NOT rolled back, so the next ingest
	// flips every untouched shard's served content back to the lineage —
	// each of those shards must republish (generation bump), or a shard
	// generation would stop identifying its content.
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/ingest", `{"day":13}`, 200)
	gens = resp["shard_generations"].([]any)
	stats := getJSON(t, ts.Client(), ts.URL+"/v1/stats", 200)
	shardStats := stats["shards"].([]any)
	for i, g := range gens {
		// Every shard republished at least once since the rollback push:
		// generation must exceed the post-rollback value (rollback pushed
		// all shards, so > 2 for untouched, > 3 possible for home).
		if g.(float64) < 3 {
			t.Fatalf("shard %d generation %v after rollback+ingest; diverged content must republish (gens %v)", i, g, gens)
		}
		if shardStats[i].(map[string]any)["generation"].(float64) != g.(float64) {
			t.Fatalf("stats and ingest response disagree on shard %d generation", i)
		}
	}
	// Both lineage nodes serve again.
	getJSON(t, ts.Client(), ts.URL+"/v1/node?phrase=hybrid+sedans+1", 200)
	getJSON(t, ts.Client(), ts.URL+"/v1/node?phrase=hybrid+sedans+2", 200)
}

// TestShardedNodeCacheSurvivesForeignRepublication pins shard-local cache
// keying on the in-process sharded server (the ROADMAP's shard-local
// cache item): /v1/node responses are cached under the resolved node's
// home shard, so an append-only ingest that republishes a FOREIGN shard
// must not evict them — while entries homed on the touched shard, and the
// union-spanning /v1/search cache, must drop.
func TestShardedNodeCacheSurvivesForeignRepublication(t *testing.T) {
	const k = 4
	snap := testOntology(0).Snapshot()
	ss, err := ontology.ShardSnapshot(snap, k)
	if err != nil {
		t.Fatal(err)
	}
	// The fake ingester adds one concept per batch; its home shard is
	// deterministic, so every other shard stays untouched.
	lineage := ss
	day := 0
	mode := "add"
	opts := Options{CacheSize: 64}
	opts.IngestSharded = func(b delta.Batch) (*ontology.ShardedSnapshot, *delta.Delta, []bool, error) {
		var d *delta.Delta
		switch mode {
		case "retire":
			d = &delta.Delta{Day: b.Day, Retire: []delta.Ref{{Type: ontology.Concept, Phrase: "hybrid sedans 1"}}}
		case "isa":
			// An IsA edge between two already-ingested concepts: it can
			// extend transitive ancestor chains on ANY shard, so every
			// carried node cache must drop even though only the
			// endpoints' shards republish.
			d = &delta.Delta{Day: b.Day, Edges: []delta.EdgeAdd{{
				SrcType: ontology.Concept, Src: "hybrid sedans 1",
				DstType: ontology.Concept, Dst: "hybrid sedans 2",
				Type: ontology.IsA, Weight: 1,
			}}}
		default:
			day++
			d = &delta.Delta{Day: b.Day, Add: []delta.NodeAdd{{Type: ontology.Concept, Phrase: fmt.Sprintf("hybrid sedans %d", day), Day: b.Day}}}
		}
		next, touched, err := delta.ApplySharded(lineage, d)
		if err == nil {
			lineage = next
		}
		return next, d, touched, err
	}
	srv := NewSharded(ss, opts)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	home := ontology.HomeShard(ontology.Concept, "hybrid sedans 1", k)
	home2 := ontology.HomeShard(ontology.Concept, "hybrid sedans 2", k)
	// Pick one probe node homed on the to-be-touched shard and one homed
	// on a shard no delta in this test ever touches.
	var onTouched, onForeign string
	onForeignShard := -1
	for _, n := range snap.Nodes() {
		u := fmt.Sprintf("/v1/node?phrase=%s&type=%s", url.QueryEscape(n.Phrase), n.Type.String())
		switch s := ontology.HomeShard(n.Type, n.Phrase, k); {
		case s == home:
			if onTouched == "" {
				onTouched = u
			}
		case s != home2 && onForeign == "":
			onForeign, onForeignShard = u, s
		}
	}
	if onTouched == "" || onForeign == "" {
		t.Fatalf("test ontology has no node pair straddling shard %d", home)
	}
	searchURL := "/v1/search?q=sedan&limit=5"

	cacheState := func(url string) string {
		t.Helper()
		resp, err := c.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d", url, resp.StatusCode)
		}
		if resp.Header.Get("X-Cache") == "hit" {
			return "hit"
		}
		return "miss"
	}
	// warm primes a URL's cache from any prior state.
	warm := func(u string) {
		t.Helper()
		cacheState(u)
		if cacheState(u) != "hit" {
			t.Fatalf("cache did not warm for %s", u)
		}
	}
	for _, u := range []string{onTouched, onForeign, searchURL} {
		warm(u)
	}

	// Ingest republishes only the home shard of the new concept.
	resp := postJSON(t, c, ts.URL+"/v1/ingest", `{"day":12}`, 200)
	touched := resp["touched_shards"].([]any)
	if len(touched) != 1 || int(touched[0].(float64)) != home {
		t.Fatalf("touched shards = %v, want [%d]", touched, home)
	}

	if got := cacheState(onForeign); got != "hit" {
		t.Fatalf("foreign-shard republication evicted an untouched shard's node cache (%s = %s)", onForeign, got)
	}
	if got := cacheState(onTouched); got != "miss" {
		t.Fatalf("touched shard's node cache survived its own republication (%s = %s)", onTouched, got)
	}
	if got := cacheState(searchURL); got != "miss" {
		t.Fatalf("union-spanning search cache survived a republication (%s = %s)", searchURL, got)
	}

	// Seed a second concept, then an IsA-edge-only delta between the two
	// ingested concepts: transitive ancestor chains can change on shards
	// the delta never touches, so carried caches must drop fleet-wide.
	postJSON(t, c, ts.URL+"/v1/ingest", `{"day":13}`, 200)
	warm(onForeign)
	mode = "isa"
	resp = postJSON(t, c, ts.URL+"/v1/ingest", `{"day":14}`, 200)
	for _, s := range resp["touched_shards"].([]any) {
		if int(s.(float64)) == onForeignShard {
			// The probe's shard must stay untouched, or the eviction below
			// would be explained by its own republication.
			t.Fatalf("IsA delta touched the foreign probe's shard %d (touched %v)", onForeignShard, resp["touched_shards"])
		}
	}
	if got := cacheState(onForeign); got != "miss" {
		t.Fatalf("node cache survived an IsA-edge delta that can extend ancestor chains (%s = %s)", onForeign, got)
	}

	// A retiring delta renumbers union IDs: every carried cache must drop.
	warm(onForeign)
	mode = "retire"
	postJSON(t, c, ts.URL+"/v1/ingest", `{"day":15}`, 200)
	if got := cacheState(onForeign); got != "miss" {
		t.Fatalf("node cache survived a retiring delta that renumbers union IDs (%s = %s)", onForeign, got)
	}
}

// TestIngestModeMismatchRejected: wiring the wrong ingester shape for the
// server's mode must 503 instead of silently flipping the serving mode.
func TestIngestModeMismatchRejected(t *testing.T) {
	snap := testOntology(0).Snapshot()
	plainOnSharded, err := ontology.ShardSnapshot(snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	sharded := NewSharded(plainOnSharded, Options{
		Ingest: func(delta.Batch) (*ontology.Snapshot, *delta.Delta, error) { return snap, nil, nil },
	})
	ts := httptest.NewServer(sharded.Handler())
	defer ts.Close()
	postJSON(t, ts.Client(), ts.URL+"/v1/ingest", `{"day":1}`, 503)
	// The serving state stayed sharded.
	if st := sharded.cur.Load(); st.shards == nil {
		t.Fatal("sharded server de-sharded by a rejected ingest")
	}

	legacy := New(snap, Options{
		IngestSharded: func(delta.Batch) (*ontology.ShardedSnapshot, *delta.Delta, []bool, error) {
			return plainOnSharded, nil, nil, nil
		},
	})
	ts2 := httptest.NewServer(legacy.Handler())
	defer ts2.Close()
	postJSON(t, ts2.Client(), ts2.URL+"/v1/ingest", `{"day":1}`, 503)
}

// BenchmarkServeSearch measures the /v1/search scan: the single-snapshot
// path versus the scatter-gather sharded path, on a cache-busting query
// mix (repeated URIs would measure the response cache instead).
func BenchmarkServeSearch(b *testing.B) {
	o := ontology.New()
	for i := 0; i < 5000; i++ {
		o.AddNode(ontology.Concept, fmt.Sprintf("concept number %d", i))
	}
	for i := 0; i < 5000; i++ {
		o.AddNode(ontology.Entity, fmt.Sprintf("entity number %d", i))
	}
	snap := o.Snapshot()
	needles := []string{"number 42", "number 999", "concept number 1", "entity", "no hit at all"}

	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap.Search(needles[i%len(needles)], 10)
		}
	})
	for _, k := range []int{4} {
		ss, err := ontology.ShardSnapshot(snap, k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("sharded=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ss.Search(needles[i%len(needles)], 10)
			}
		})
	}
}
