package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"giant/internal/delta"
	"giant/internal/ontology"
	"giant/internal/wal"
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
		if m["generation"].(float64) != 0 {
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

// TestNewIsNewShardedAtOneShard pins "one state shape": a New(snap, o)
// server and a NewSharded(ShardSnapshot(snap, 1), o) server answer every
// endpoint with the same status and body — reads, the operational
// endpoints, and the refusals of an ingest → rejected batch → ingest
// sequence (both servers are frozen, so each write step compares two 503s).
func TestNewIsNewShardedAtOneShard(t *testing.T) {
	base := testOntology(0).Snapshot()
	ss, err := ontology.ShardSnapshot(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{CacheSize: 64}
	servers := [2]*Server{New(base, opts), NewSharded(ss, opts)}

	// scrub drops the wall-clock fields of /v1/stats and /v1/metrics.
	scrub := func(path string, body []byte) string {
		switch path {
		case "/v1/stats":
			var m map[string]any
			if err := json.Unmarshal(body, &m); err != nil {
				t.Fatalf("%s: %v: %s", path, err, body)
			}
			delete(m, "loaded_at")
			body, _ = json.Marshal(m)
		case "/v1/metrics":
			var m Metrics
			if err := json.Unmarshal(body, &m); err != nil {
				t.Fatalf("%s: %v: %s", path, err, body)
			}
			m.UptimeSeconds = 0
			for name, e := range m.Endpoints {
				e.AvgLatencyUs, e.MaxLatencyUs, e.QPS = 0, 0, 0
				m.Endpoints[name] = e
			}
			body, _ = json.Marshal(m)
		}
		return string(body)
	}
	type step struct{ method, path, body string }
	reads := []step{
		{"GET", "/healthz", ""},
		{"GET", "/v1/stats", ""},
		{"GET", "/v1/node?phrase=family+sedans&type=concept", ""},
		{"GET", "/v1/node?phrase=family+sedans&type=concept", ""}, // cache hit
		{"GET", "/v1/node?id=2", ""},
		{"GET", "/v1/node?phrase=fresh+concept+day+12", ""},
		{"GET", "/v1/node", ""},
		{"GET", "/v1/search?q=sedan&limit=3", ""},
		{"GET", "/v1/search?q=sedan&limit=3&scatter=full", ""},
		{"GET", "/v1/search?q=fresh", ""},
		{"GET", "/v1/search?q=sedan&limit=0", ""},
		{"GET", "/v1/tag?title=sedan+model+a+wins+award&entities=sedan+model+a", ""},
		{"POST", "/v1/tag", `{"title":"family sedans compared","entities":["sedan model b"]}`},
		{"GET", "/v1/tag?partial=stats", ""},
		{"GET", "/v1/query/rewrite?q=best+family+sedans", ""},
		{"GET", "/v1/query/rewrite?q=best+family+sedans&partial=1", ""},
		{"GET", "/v1/story?seed=brand+unveils+sedan+model+a", ""},
		{"GET", "/v1/story?partial=fragments", ""},
		{"GET", "/v1/story?seed=nope", ""},
		{"GET", "/v1/wal", ""},
		{"POST", "/v1/checkpoint", ""},
		{"GET", "/v1/metrics", ""},
	}
	ingest := func(day int) step {
		return step{"POST", "/v1/ingest", fmt.Sprintf(`{"day":%d,"docs":[{"id":-1,"title":"doc","category":0,"day":%d}]}`, day, day)}
	}
	var steps []step
	for _, write := range []step{
		ingest(12),
		{"POST", "/v1/ingest", `{"day":1}`}, // invalid batch: 422
		ingest(13),
	} {
		steps = append(append(steps, reads...), write)
	}
	steps = append(steps, reads...)

	for i, st := range steps {
		var got [2]string
		for j, srv := range servers {
			rr := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rr, httptest.NewRequest(st.method, st.path, strings.NewReader(st.body)))
			path, _, _ := strings.Cut(st.path, "?")
			got[j] = fmt.Sprintf("%d %s", rr.Code, scrub(path, rr.Body.Bytes()))
		}
		if got[0] != got[1] {
			t.Fatalf("step %d %s %s diverges:\nNew:        %s\nNewSharded: %s", i, st.method, st.path, got[0], got[1])
		}
	}
	for _, name := range endpointNames {
		if servers[0].metrics.endpoints[name].requests.Load() == 0 {
			t.Errorf("endpoint %q was never compared", name)
		}
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

// TestIngestModeMismatchRejected: wiring a per-shard ingester on a
// whole-world server must 503 instead of silently flipping the serving
// mode.
func TestIngestModeMismatchRejected(t *testing.T) {
	ss, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), 2)
	if err != nil {
		t.Fatal(err)
	}
	world := NewSharded(ss, Options{
		ShardIngest: func(delta.Batch, wal.Record) (*ontology.Snapshot, *ontology.Snapshot, *delta.Delta, error) {
			return ss.Union(), ss.Union(), &delta.Delta{}, nil
		},
	})
	ts := httptest.NewServer(world.Handler())
	defer ts.Close()
	postJSON(t, ts.Client(), ts.URL+"/v1/ingest", `{"day":1}`, 503)
	if world.ShardProjection() != nil {
		t.Fatal("whole-world server turned per-shard by a rejected ingest")
	}
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

// TestRebaseServesProjectBodies: Rebase leaves exactly one field stale,
// and no read renders it. A touch batch re-observes node x, homed on one
// shard and held as a ghost by the other; delta.TouchedShards marks only
// x's home, so the other shard rebases its projection and its ghost copy
// of x keeps the old LastSeenDay. Every per-shard read body of a server
// over the rebased projection equals the body of one over Project(next):
// node by id and by phrase, search, and the three ?partial= modes.
func TestRebaseServesProjectBodies(t *testing.T) {
	const k = 2
	union := testOntology(0).Snapshot()
	var x, y ontology.Node
	for _, e := range union.Edges() {
		src, dst := union.At(e.Src), union.At(e.Dst)
		if ontology.HomeShard(src.Type, src.Phrase, k) != ontology.HomeShard(dst.Type, dst.Phrase, k) {
			x, y = *src, *dst
			break
		}
	}
	if x.Phrase == "" {
		t.Fatal("precondition: the test ontology has no cross-shard edge")
	}
	d := &delta.Delta{Day: 40, Touch: []delta.NodeAdd{{Type: x.Type, Phrase: x.Phrase, Day: 40}}}
	next, err := delta.Apply(union, d)
	if err != nil {
		t.Fatal(err)
	}
	ghost := ontology.HomeShard(y.Type, y.Phrase, k)
	if touched := delta.TouchedShards(union, d, k); touched[ghost] {
		t.Fatalf("precondition: the touch of %q marked shard %d, which only holds its ghost", x.Phrase, ghost)
	}
	before, err := ontology.Project(union, ghost, k)
	if err != nil {
		t.Fatal(err)
	}
	rebased, projected := before.Rebase(next), mustProject(t, next, ghost, k)
	seen := func(p *ontology.ShardProjection) int {
		id, _ := p.Snap.Lookup(x.Type, x.Phrase)
		return p.Snap.At(id).LastSeenDay
	}
	if seen(rebased) == seen(projected) {
		t.Fatalf("precondition: the ghost of %q reads LastSeenDay %d after Rebase and after Project", x.Phrase, seen(rebased))
	}

	yID, _ := next.Lookup(y.Type, y.Phrase)
	paths := []string{
		fmt.Sprintf("/v1/node?id=%d", yID),
		"/v1/node?" + url.Values{"phrase": {y.Phrase}}.Encode(),
		"/v1/node?" + url.Values{"phrase": {y.Phrase}, "type": {y.Type.String()}}.Encode(),
		"/v1/search?q=sedan&limit=50",
		"/v1/tag?partial=stats",
		"/v1/tag?partial=match&" + url.Values{"title": {x.Phrase + " and " + y.Phrase}, "entities": {x.Phrase + "," + y.Phrase}}.Encode(),
		"/v1/query/rewrite?partial=1&" + url.Values{"q": {y.Phrase}}.Encode(),
		"/v1/story?partial=fragments",
	}
	serve := func(p *ontology.ShardProjection, path string) (int, string) {
		rec := httptest.NewRecorder()
		NewShard(p, Options{}).Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	for _, path := range paths {
		rs, rb := serve(rebased, path)
		ps, pb := serve(projected, path)
		if rs != http.StatusOK || rs != ps || rb != pb {
			t.Fatalf("%s: rebased %d %s\nprojected %d %s", path, rs, rb, ps, pb)
		}
	}
}

func mustProject(t *testing.T, union *ontology.Snapshot, i, k int) *ontology.ShardProjection {
	t.Helper()
	p, err := ontology.Project(union, i, k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
