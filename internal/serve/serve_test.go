package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"giant/internal/delta"
	"giant/internal/ontology"
	"giant/internal/wal"
)

// testOntology hand-builds a small ontology with every node and edge type.
// variant skews phrases so tests can tell two snapshots apart.
func testOntology(variant int) *ontology.Ontology {
	o := ontology.New()
	auto := o.AddNode(ontology.Category, "auto")
	sedans := o.AddNode(ontology.Concept, "family sedans")
	o.AddAlias(sedans, "sedans for families")
	var ents []ontology.NodeID
	for i := 0; i < 6+variant; i++ {
		e := o.AddNode(ontology.Entity, fmt.Sprintf("sedan model %c", 'a'+i))
		ents = append(ents, e)
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(o.AddEdge(auto, sedans, ontology.IsA, 1))
	for _, e := range ents {
		must(o.AddEdge(sedans, e, ontology.IsA, 1))
	}
	must(o.AddEdge(ents[0], ents[1], ontology.Correlate, 1))
	ev1 := o.AddNodeAt(ontology.Event, "brand unveils sedan model a", 3)
	o.SetEventAttrs(ev1, "unveils", "tokyo", 3)
	ev2 := o.AddNodeAt(ontology.Event, "sedan model a wins award", 9)
	o.SetEventAttrs(ev2, "wins", "", 9)
	must(o.AddEdge(ev1, ents[0], ontology.Involve, 1))
	must(o.AddEdge(ev2, ents[0], ontology.Involve, 1))
	topic := o.AddNode(ontology.Topic, "sedan launch season")
	must(o.AddEdge(topic, ev1, ontology.IsA, 1))
	return o
}

func getJSON(t *testing.T, client *http.Client, url string, want int) map[string]any {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, want, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v: %s", url, err, body)
	}
	return out
}

func TestEndpoints(t *testing.T) {
	srv := New(testOntology(0).Snapshot(), Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	if got := getJSON(t, c, ts.URL+"/healthz", 200); got["status"] != "ok" {
		t.Fatalf("healthz = %v", got)
	}
	stats := getJSON(t, c, ts.URL+"/v1/stats", 200)
	nbt := stats["nodes_by_type"].(map[string]any)
	if nbt["entity"].(float64) != 6 || nbt["event"].(float64) != 2 {
		t.Fatalf("stats = %v", stats)
	}

	node := getJSON(t, c, ts.URL+"/v1/node?phrase=family+sedans&type=concept", 200)
	if node["node"].(map[string]any)["phrase"] != "family sedans" {
		t.Fatalf("node = %v", node)
	}
	children := node["children"].(map[string]any)["isA"].([]any)
	if len(children) != 6 {
		t.Fatalf("children = %v", children)
	}
	// Alias resolution and FindAny-style lookup.
	getJSON(t, c, ts.URL+"/v1/node?phrase=sedans+for+families&type=concept", 200)
	getJSON(t, c, ts.URL+"/v1/node?phrase=sedan+launch+season", 200)
	getJSON(t, c, ts.URL+"/v1/node?phrase=nope", 404)
	getJSON(t, c, ts.URL+"/v1/node?id=bogus", 400)
	getJSON(t, c, ts.URL+"/v1/node", 400)

	search := getJSON(t, c, ts.URL+"/v1/search?q=sedan&limit=3", 200)
	if search["count"].(float64) != 3 {
		t.Fatalf("search = %v", search)
	}
	getJSON(t, c, ts.URL+"/v1/search", 400)

	rw := getJSON(t, c, ts.URL+"/v1/query/rewrite?q=best+family+sedans", 200)
	if rw["concept"] != "family sedans" {
		t.Fatalf("rewrite = %v", rw)
	}
	if len(rw["rewrites"].([]any)) == 0 {
		t.Fatalf("no rewrites: %v", rw)
	}

	story := getJSON(t, c, ts.URL+"/v1/story?seed=brand+unveils+sedan+model+a", 200)
	nEvents := 0
	for _, b := range story["branches"].([]any) {
		nEvents += len(b.([]any))
	}
	if nEvents != 2 { // both events share entity "sedan model a"
		t.Fatalf("story = %v", story)
	}
	getJSON(t, c, ts.URL+"/v1/story?seed=unknown", 404)

	// Tagging via GET and POST.
	tag := getJSON(t, c, ts.URL+"/v1/tag?title=best+family+sedans+roundup&entities=sedan+model+a", 200)
	if len(tag["concepts"].([]any)) == 0 {
		t.Fatalf("tag concepts = %v", tag)
	}
	body, _ := json.Marshal(tagRequest{Title: "brand unveils sedan model a", Entities: []string{"sedan model a"}})
	resp, err := c.Post(ts.URL+"/v1/tag", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("POST tag = %d", resp.StatusCode)
	}

	metrics := getJSON(t, c, ts.URL+"/v1/metrics", 200)
	eps := metrics["endpoints"].(map[string]any)
	if eps["node"].(map[string]any)["requests"].(float64) < 5 {
		t.Fatalf("metrics undercounted: %v", eps["node"])
	}
}

func TestResponseCache(t *testing.T) {
	srv := New(testOntology(0).Snapshot(), Options{CacheSize: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	url := ts.URL + "/v1/search?q=sedan"
	for i, wantHit := range []bool{false, true} {
		resp, err := c.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if gotHit := resp.Header.Get("X-Cache") == "hit"; gotHit != wantHit {
			t.Fatalf("request %d: cache hit = %v, want %v", i, gotHit, wantHit)
		}
	}
	// Errors are not cached.
	for i := 0; i < 2; i++ {
		resp, _ := c.Get(ts.URL + "/v1/search")
		if resp.Header.Get("X-Cache") == "hit" {
			t.Fatal("cached an error response")
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// TestConcurrentCacheHitsSameKey hammers one cached URL from many
// goroutines: cached bodies are shared between responses, so any handler
// mutation of the cached backing array is a data race this test surfaces
// under -race (regression: writeBody used to append '\n' to the shared
// slice per response).
func TestConcurrentCacheHitsSameKey(t *testing.T) {
	srv := New(testOntology(0).Snapshot(), Options{CacheSize: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/search?q=sedan&limit=5"

	var want []byte
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &http.Client{Timeout: 10 * time.Second}
			for i := 0; i < 50; i++ {
				resp, err := c.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
				_ = body
			}
		}()
	}
	wg.Wait()
	resp, err := ts.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	want, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(want) == 0 || want[len(want)-1] != '\n' {
		t.Fatalf("response not newline-terminated: %q", want)
	}
}

// TestConcurrentReadsDuringLogApply hammers every read endpoint of a
// delta-log replica from 32 goroutines while the router ingests batches
// that the replica applies and publishes underneath them; with -race this
// doubles as the lock-free-reads proof. No request may 5xx, and every
// batch lands as exactly one new generation.
func TestConcurrentReadsDuringLogApply(t *testing.T) {
	f := newWALFixture(t, 1, 1, RouterOptions{})
	rep := f.procs[0][0].outer

	urls := []string{
		"/healthz",
		"/v1/stats",
		"/v1/node?phrase=family+sedans&type=concept",
		"/v1/node?id=1",
		"/v1/search?q=sedan&limit=5",
		"/v1/query/rewrite?q=best+family+sedans",
		"/v1/story?seed=brand+unveils+sedan+model+a",
		"/v1/tag?title=review+of+sedan+model+a&entities=sedan+model+a",
		"/v1/metrics",
	}

	const (
		readers = 32
		iters   = 40
		batches = 25
	)
	var wg sync.WaitGroup
	var server5xx atomic.Int64
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := &http.Client{Timeout: 10 * time.Second}
			for i := 0; i < iters; i++ {
				url := rep.URL + urls[(g+i)%len(urls)]
				resp, err := c.Get(url)
				if err != nil {
					t.Errorf("GET %s: %v", url, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					server5xx.Add(1)
					t.Errorf("GET %s = %d", url, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := &http.Client{Timeout: 10 * time.Second}
		for i := 0; i < batches; i++ {
			resp, err := c.Post(f.routerTS.URL+"/v1/ingest", "application/json", strings.NewReader(fmt.Sprintf(`{"day":%d}`, i+1)))
			if err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("ingest = %d", resp.StatusCode)
			}
		}
	}()
	wg.Wait()
	if n := server5xx.Load(); n > 0 {
		t.Fatalf("%d requests returned 5xx during log applies", n)
	}
	if gen := getJSON(t, rep.Client(), rep.URL+"/healthz", 200)["generation"]; gen != float64(batches) {
		t.Fatalf("replica generation = %v, want %d", gen, batches)
	}
}

func TestRunGracefulShutdown(t *testing.T) {
	srv := New(testOntology(0).Snapshot(), Options{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Run(ctx, "127.0.0.1:0", srv.Handler(), time.Second) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not shut down")
	}
}

// fakeIngester applies one real delta per batch against the snapshot a
// 0/1 replica serves (its projection is the union): one new concept node
// per batch day, linked under the existing category.
func fakeIngester(srv **Server) func(delta.Batch, wal.Record) (*ontology.ShardProjection, *delta.Delta, []bool, error) {
	return func(b delta.Batch, _ wal.Record) (*ontology.ShardProjection, *delta.Delta, []bool, error) {
		if len(b.Docs) == 0 && len(b.Clicks) == 0 {
			return nil, nil, nil, fmt.Errorf("empty batch: %w", delta.ErrInvalidBatch)
		}
		phrase := fmt.Sprintf("fresh concept day %d", b.EffectiveDay())
		d := &delta.Delta{
			Day: b.EffectiveDay(),
			Add: []delta.NodeAdd{{Type: ontology.Concept, Phrase: phrase, Day: b.EffectiveDay()}},
			Edges: []delta.EdgeAdd{{
				SrcType: ontology.Category, Src: "auto",
				DstType: ontology.Concept, Dst: phrase,
				Type: ontology.IsA, Weight: 1,
			}},
		}
		next, err := delta.Apply((*srv).Current(), d)
		if err != nil {
			return nil, nil, nil, err
		}
		ss, err := ontology.ShardSnapshot(next, 1)
		if err != nil {
			return nil, nil, nil, err
		}
		return ss.Projection(0), d, []bool{true}, nil
	}
}

// newFleetOfOne boots the smallest writable deployment around srv, a 0/1
// replica: srv follows a fresh delta log, and a router appending to that
// log fronts it.
func newFleetOfOne(t *testing.T, srv *Server) (replica, router *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	followLog(t, dir, srv)
	replica = httptest.NewServer(srv.Handler())
	t.Cleanup(replica.Close)
	rt, err := NewRouter(RouterOptions{Backends: []string{replica.URL}, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	router = httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)
	return replica, router
}

func postJSON(t *testing.T, c *http.Client, url, body string, want int) map[string]any {
	t.Helper()
	resp, err := c.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("POST %s = %d, want %d: %s", url, resp.StatusCode, want, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("POST %s: bad JSON: %v: %s", url, err, raw)
	}
	return out
}

// TestIngestLifecycle drives the live-update lifecycle end to end on a
// fleet of one: ingest moves the generation to the batch's log position
// and serves the new node, and bad batches and failing ingesters answer
// their error codes. A whole-world server takes no write.
func TestIngestLifecycle(t *testing.T) {
	one, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var srv *Server
	srv = NewShard(one.Projection(0), Options{ShardIngest: fakeIngester(&srv)})
	replica, router := newFleetOfOne(t, srv)
	c := router.Client()

	if gen := getJSON(t, c, replica.URL+"/healthz", 200)["generation"]; gen != 0.0 {
		t.Fatalf("replica boots at generation %v", gen)
	}
	batch := `{"day":12,"docs":[{"id":-1,"title":"fresh doc","category":0,"day":12}],"clicks":[]}`
	out := postJSON(t, c, router.URL+"/v1/ingest", batch, 200)
	if gens := out["shard_generations"]; !reflect.DeepEqual(gens, []any{1.0}) {
		t.Fatalf("ingest generations = %v", out)
	}
	dsum := out["delta"].(map[string]any)
	if dsum["added"].(float64) != 1 {
		t.Fatalf("delta summary = %v", dsum)
	}
	// The new node serves immediately.
	node := getJSON(t, c, router.URL+"/v1/node?phrase=fresh+concept+day+12&type=concept", 200)
	if node["node"].(map[string]any)["phrase"] != "fresh concept day 12" {
		t.Fatalf("node = %v", node)
	}

	// Bad requests: malformed JSON and a batch the ingester rejects.
	postJSON(t, c, router.URL+"/v1/ingest", "{not json", http.StatusBadRequest)
	postJSON(t, c, router.URL+"/v1/ingest", `{"day":1}`, http.StatusUnprocessableEntity)
	// A whole-world server has no ingester: unavailable.
	srvNo := New(testOntology(0).Snapshot(), Options{})
	rr := httptest.NewRecorder()
	srvNo.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader([]byte(`{}`))))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest without ingester = %d", rr.Code)
	}
	// Internal delta-pipeline failures (no ErrInvalidBatch in the chain)
	// must surface as 5xx, not blame the client: the replica records a 500
	// and the router answers 502.
	boom := NewShard(one.Projection(0), Options{
		ShardIngest: func(delta.Batch, wal.Record) (*ontology.ShardProjection, *delta.Delta, []bool, error) {
			return nil, nil, nil, fmt.Errorf("delta pipeline invariant violated")
		},
	})
	boomReplica, boomRouter := newFleetOfOne(t, boom)
	status, body := postRaw(t, boomRouter.Client(), boomRouter.URL+"/v1/ingest", batch)
	if status != http.StatusBadGateway {
		t.Fatalf("internal ingest failure = %d, want 502: %s", status, body)
	}
	assertEnvelope(t, body, codeBadUpstream)
	last := getJSON(t, c, boomReplica.URL+"/v1/wal", 200)["last"].(map[string]any)
	if last["status"] != float64(http.StatusInternalServerError) {
		t.Fatalf("replica apply of a failing batch = %v, want 500", last)
	}
}

// TestHTTPServerDropsSlowHeaders: the server giantd and giantrouter listen
// with disconnects a client that sends half a request line and stalls
// (slowloris) within readHeaderTimeout, instead of holding the connection
// open forever.
func TestHTTPServerDropsSlowHeaders(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(ln.Addr().String(), http.NotFoundHandler())
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after a stalled request line", time.Since(start))
	}
}
