package serve

// The application-endpoint pin: /v1/tag, /v1/query/rewrite and /v1/story
// must answer byte-identically across all three serving modes — a plain
// New server over the union snapshot, an in-process NewSharded server,
// and a Router over per-shard NewShard backends — for every shard count,
// cold and warm (memoized concept/fragment indexes), and through day-by-day ingest replay including a union-ID-
// renumbering retirement. The workloads are seed-pinned but randomized:
// documents built from live phrases with mixed-case entities, queries at
// every specificity (exact concept, contained entity, single token,
// gibberish, case/whitespace-mangled), and story seeds through canonical
// phrases, aliases, non-event phrases and misses.
//
// The same file pins the two bugfix satellites: routing keys are
// normalized exactly like analysis (a case/whitespace variant of a query
// consults exactly the canonical form's shards with the normalized
// query), and the
// degraded-mode policy is uniform with /v1/search — fail-closed 503s
// mention the policy, fail-open answers 200 "partial": true with the
// missing shards listed and never a 5xx.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"giant/internal/delta"
	"giant/internal/ontology"
	"giant/internal/wal"
)

// randomAppCorpus builds a seed-pinned ontology with the full application
// surface: a category over concepts, entities under concepts (some
// aliased, siblings correlated), events with triggers/locations/days
// involving those entities (some aliased), and topics over events.
func randomAppCorpus(r *rand.Rand) *ontology.Ontology {
	o := ontology.New()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	cat := o.AddNode(ontology.Category, "newsroom")
	triggers := []string{"unveils", "wins", "launches", "recalls"}
	locations := []string{"tokyo", "berlin", ""}
	var entities []ontology.NodeID
	var entityPhrases []string
	for i := 0; i < 6; i++ {
		cp := fmt.Sprintf("%s %s %d", corpusWords[r.Intn(len(corpusWords))], corpusWords[r.Intn(len(corpusWords))], i)
		c := o.AddNode(ontology.Concept, cp)
		must(o.AddEdge(cat, c, ontology.IsA, 1))
		var siblings []ontology.NodeID
		for j := 0; j < 2; j++ {
			ep := fmt.Sprintf("%s model %c", cp, 'a'+j)
			e := o.AddNode(ontology.Entity, ep)
			must(o.AddEdge(c, e, ontology.IsA, 1))
			if (i+j)%3 == 0 {
				o.AddAlias(e, fmt.Sprintf("aka %s %d%d", corpusWords[r.Intn(len(corpusWords))], i, j))
			}
			siblings = append(siblings, e)
			entities = append(entities, e)
			entityPhrases = append(entityPhrases, ep)
		}
		must(o.AddEdge(siblings[0], siblings[1], ontology.Correlate, 1))
	}
	for i := 0; i < 10; i++ {
		ei := r.Intn(len(entities))
		trig := triggers[r.Intn(len(triggers))]
		day := 1 + r.Intn(6)
		ev := o.AddNodeAt(ontology.Event, fmt.Sprintf("brand %s %s %d", trig, entityPhrases[ei], i), day)
		o.SetEventAttrs(ev, trig, locations[r.Intn(len(locations))], day)
		must(o.AddEdge(ev, entities[ei], ontology.Involve, 1))
		if i%2 == 1 {
			must(o.AddEdge(ev, entities[(ei+1)%len(entities)], ontology.Involve, 1))
		}
		if i%3 == 0 {
			o.AddAlias(ev, fmt.Sprintf("aka story %d", i))
		}
		if i%4 == 0 {
			topic := o.AddNode(ontology.Topic, fmt.Sprintf("saga %s %d", corpusWords[r.Intn(len(corpusWords))], i))
			must(o.AddEdge(topic, ev, ontology.IsA, 1))
		}
	}
	return o
}

// appRequest is one application-endpoint request replayed against every
// serving mode.
type appRequest struct {
	name   string
	method string
	path   string
	body   string
}

// mangleCase uppercases every other rune — a case variant that must not
// change routing or results.
func mangleCase(s string) string {
	var b strings.Builder
	for i, c := range s {
		if i%2 == 0 {
			b.WriteString(strings.ToUpper(string(c)))
		} else {
			b.WriteString(string(c))
		}
	}
	return b.String()
}

// appWorkloads derives the request mix from the live node set.
func appWorkloads(r *rand.Rand, snap *ontology.Snapshot) []appRequest {
	var concepts, entities, events, topics []ontology.Node
	var eventAliases []string
	for _, n := range snap.Nodes() {
		switch n.Type {
		case ontology.Concept:
			concepts = append(concepts, n)
		case ontology.Entity:
			entities = append(entities, n)
		case ontology.Event:
			events = append(events, n)
			eventAliases = append(eventAliases, n.Aliases...)
		case ontology.Topic:
			topics = append(topics, n)
		}
	}
	pick := func(ns []ontology.Node) ontology.Node { return ns[r.Intn(len(ns))] }
	var reqs []appRequest

	tagGET := func(name, title, content string, ents ...string) {
		v := url.Values{}
		if title != "" {
			v.Set("title", title)
		}
		if content != "" {
			v.Set("content", content)
		}
		if len(ents) > 0 {
			v.Set("entities", strings.Join(ents, ","))
		}
		reqs = append(reqs, appRequest{name: name, method: http.MethodGet, path: "/v1/tag?" + v.Encode()})
	}
	for i := 0; i < 4; i++ {
		ev, ent := pick(events), pick(entities)
		tagGET(fmt.Sprintf("tag-event-%d", i), ev.Phrase+" roundup", "more about "+ent.Phrase+". trailing sentence.", ent.Phrase)
	}
	ent := pick(entities)
	tagGET("tag-mixed-case", mangleCase(pick(events).Phrase), "", mangleCase(ent.Phrase))
	tagGET("tag-title-only", pick(concepts).Phrase+" report", "")
	tagGET("tag-no-sentence", "", "content without a period and no entities")
	doc := fmt.Sprintf(`{"title":%q,"entities":[%q,%q]}`, pick(events).Phrase+" recap", pick(entities).Phrase, pick(entities).Phrase)
	reqs = append(reqs, appRequest{name: "tag-post", method: http.MethodPost, path: "/v1/tag", body: doc})

	rewrite := func(name, q string) {
		reqs = append(reqs, appRequest{name: name, method: http.MethodGet, path: "/v1/query/rewrite?q=" + url.QueryEscape(q)})
	}
	for i := 0; i < 3; i++ {
		rewrite(fmt.Sprintf("rewrite-concept-%d", i), pick(concepts).Phrase)
	}
	rewrite("rewrite-concept-padded", "best "+pick(concepts).Phrase+" deals")
	rewrite("rewrite-entity-exact", pick(entities).Phrase)
	rewrite("rewrite-entity-contained", "news about "+pick(entities).Phrase+" today")
	rewrite("rewrite-token", corpusWords[r.Intn(len(corpusWords))])
	rewrite("rewrite-miss", "zzqqvx plonk")
	rewrite("rewrite-mixed-case", mangleCase(pick(concepts).Phrase))
	rewrite("rewrite-whitespace", "  "+strings.ReplaceAll(pick(concepts).Phrase, " ", "   ")+" ")
	rewrite("rewrite-blank", "   ")

	story := func(name, seed string) {
		reqs = append(reqs, appRequest{name: name, method: http.MethodGet, path: "/v1/story?seed=" + url.QueryEscape(seed)})
	}
	for i := 0; i < 4; i++ {
		story(fmt.Sprintf("story-event-%d", i), pick(events).Phrase)
	}
	if len(eventAliases) > 0 {
		story("story-alias", eventAliases[r.Intn(len(eventAliases))])
	}
	story("story-mixed-case", mangleCase(pick(events).Phrase))
	story("story-topic-404", pick(topics).Phrase)
	story("story-entity-404", pick(entities).Phrase)
	story("story-miss-404", "no such saga anywhere")
	return reqs
}

// assertAppEquivalent replays one request against the reference server
// and a deployment, byte for byte.
func assertAppEquivalent(t *testing.T, refTS, gotTS *httptest.Server, mode string, req appRequest) {
	t.Helper()
	do := func(ts *httptest.Server) (int, []byte) {
		t.Helper()
		if req.method == http.MethodPost {
			resp, err := ts.Client().Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
			if err != nil {
				t.Fatalf("%s: POST %s: %v", req.name, req.path, err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			return resp.StatusCode, buf.Bytes()
		}
		status, body := getRaw(t, ts.Client(), ts.URL+req.path)
		return status, body
	}
	refStatus, refBody := do(refTS)
	gotStatus, gotBody := do(gotTS)
	if refStatus != gotStatus || !bytes.Equal(refBody, gotBody) {
		t.Fatalf("%s [%s] %s: got (%d) %s != reference (%d) %s",
			req.name, mode, req.path, gotStatus, gotBody, refStatus, refBody)
	}
}

// newAppRouterFleet boots K plain NewShard backends behind a router.
func newAppRouterFleet(t *testing.T, ss *ontology.ShardedSnapshot, k int) *httptest.Server {
	t.Helper()
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		backTS := httptest.NewServer(NewShard(ss.Projection(i), Options{}).Handler())
		t.Cleanup(backTS.Close)
		urls[i] = backTS.URL
	}
	rt, err := NewRouter(RouterOptions{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	routerTS := httptest.NewServer(rt.Handler())
	t.Cleanup(routerTS.Close)
	return routerTS
}

// TestApplicationEquivalenceRandomized: for K ∈ {1, 2, 4}, both the
// in-process sharded server and the router answer every workload request
// identically to a plain New server over the same snapshot — twice, so
// the warm pass reads the memoized merged indexes the cold pass built.
func TestApplicationEquivalenceRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	snap := randomAppCorpus(r).Snapshot()
	reqs := appWorkloads(r, snap)
	refTS := httptest.NewServer(New(snap, Options{}).Handler())
	t.Cleanup(refTS.Close)

	// Guard the harness itself: byte-equality over uniformly empty bodies
	// would prove nothing, so the reference must produce at least one
	// concept tag, one rewrite and one non-empty story tree.
	sawTag, sawRewrite, sawBranch := false, false, false
	for _, req := range reqs {
		if req.method != http.MethodGet {
			continue
		}
		status, body := getRaw(t, refTS.Client(), refTS.URL+req.path)
		if status != http.StatusOK {
			continue
		}
		switch {
		case strings.HasPrefix(req.path, "/v1/tag"):
			sawTag = sawTag || !bytes.Contains(body, []byte(`"concepts":[]`))
		case strings.HasPrefix(req.path, "/v1/query/rewrite"):
			sawRewrite = sawRewrite || bytes.Contains(body, []byte(`"rewrites":["`))
		case strings.HasPrefix(req.path, "/v1/story"):
			sawBranch = sawBranch || bytes.Contains(body, []byte(`"branches":[[`))
		}
	}
	if !sawTag || !sawRewrite || !sawBranch {
		t.Fatalf("degenerate workload: tag=%v rewrite=%v story=%v — the corpus must exercise every merge", sawTag, sawRewrite, sawBranch)
	}

	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			ss, err := ontology.ShardSnapshot(snap, k)
			if err != nil {
				t.Fatal(err)
			}
			shardTS := httptest.NewServer(NewSharded(ss, Options{CacheSize: 64}).Handler())
			t.Cleanup(shardTS.Close)
			routerTS := newAppRouterFleet(t, ss, k)
			for pass := 0; pass < 2; pass++ {
				for _, req := range reqs {
					assertAppEquivalent(t, refTS, shardTS, fmt.Sprintf("sharded pass %d", pass), req)
					assertAppEquivalent(t, refTS, routerTS, fmt.Sprintf("router pass %d", pass), req)
				}
			}
		})
	}
}

// appReplayDelta scripts the application-surface ingest replay: concepts,
// correlated entities, aliased events with Involve edges, a topic, and a
// day-5 retirement that renumbers union IDs under every carried cache.
func appReplayDelta(day int) *delta.Delta {
	switch day {
	case 1:
		return &delta.Delta{Day: day, Add: []delta.NodeAdd{
			{Type: ontology.Concept, Phrase: "replay rocket news", Day: day},
			{Type: ontology.Entity, Phrase: "replay rocket one", Day: day},
		}, Edges: []delta.EdgeAdd{
			{SrcType: ontology.Concept, Src: "replay rocket news", DstType: ontology.Entity, Dst: "replay rocket one", Type: ontology.IsA, Weight: 1},
		}}
	case 2:
		return &delta.Delta{Day: day, Add: []delta.NodeAdd{
			{Type: ontology.Entity, Phrase: "replay rocket two", Day: day},
			{Type: ontology.Event, Phrase: "brand unveils replay rocket one", Trigger: "unveils", Location: "tokyo", Day: day},
		}, Edges: []delta.EdgeAdd{
			{SrcType: ontology.Concept, Src: "replay rocket news", DstType: ontology.Entity, Dst: "replay rocket two", Type: ontology.IsA, Weight: 1},
			{SrcType: ontology.Entity, Src: "replay rocket one", DstType: ontology.Entity, Dst: "replay rocket two", Type: ontology.Correlate, Weight: 1},
			{SrcType: ontology.Event, Src: "brand unveils replay rocket one", DstType: ontology.Entity, Dst: "replay rocket one", Type: ontology.Involve, Weight: 1},
		}}
	case 3:
		return &delta.Delta{Day: day, Add: []delta.NodeAdd{
			{Type: ontology.Event, Phrase: "replay rocket one wins award", Trigger: "wins", Day: day,
				Aliases: []string{"aka replay award"}},
		}, Edges: []delta.EdgeAdd{
			{SrcType: ontology.Event, Src: "replay rocket one wins award", DstType: ontology.Entity, Dst: "replay rocket one", Type: ontology.Involve, Weight: 1},
		}}
	case 4:
		return &delta.Delta{Day: day, Add: []delta.NodeAdd{
			{Type: ontology.Topic, Phrase: "replay rocket saga", Day: day},
		}, Edges: []delta.EdgeAdd{
			{SrcType: ontology.Topic, Src: "replay rocket saga", DstType: ontology.Event, Dst: "brand unveils replay rocket one", Type: ontology.IsA, Weight: 1},
		}}
	case 5:
		return &delta.Delta{Day: day, Retire: []delta.Ref{{Type: ontology.Entity, Phrase: "replay rocket two"}}}
	default:
		return &delta.Delta{Day: day, Add: []delta.NodeAdd{
			{Type: ontology.Event, Phrase: fmt.Sprintf("replay rocket one launches again %d", day), Trigger: "launches", Day: day},
		}, Edges: []delta.EdgeAdd{
			{SrcType: ontology.Event, Src: fmt.Sprintf("replay rocket one launches again %d", day), DstType: ontology.Entity, Dst: "replay rocket one", Type: ontology.Involve, Weight: 1},
		}}
	}
}

// TestApplicationEquivalenceIngestReplay replays the script day by day for
// K ∈ {1, 2, 4}, through the router's /v1/ingest and through a refWorld
// serving a NewSharded over each day's result; after every day, each must
// answer the application workload byte-identically to a fresh reference
// server over the evolved union — cold and warm.
func TestApplicationEquivalenceIngestReplay(t *testing.T) {
	base := randomAppCorpus(rand.New(rand.NewSource(29))).Snapshot()
	reqs := []appRequest{
		{name: "tag", method: http.MethodGet, path: "/v1/tag?" + url.Values{
			"title":    {"brand unveils replay rocket one roundup"},
			"entities": {"replay rocket one,replay rocket two"},
		}.Encode()},
		{name: "rewrite-concept", method: http.MethodGet, path: "/v1/query/rewrite?q=replay+rocket+news"},
		{name: "rewrite-entity", method: http.MethodGet, path: "/v1/query/rewrite?q=replay+rocket+one"},
		{name: "story-event", method: http.MethodGet, path: "/v1/story?seed=brand+unveils+replay+rocket+one"},
		{name: "story-alias", method: http.MethodGet, path: "/v1/story?seed=aka+replay+award"},
		{name: "story-topic", method: http.MethodGet, path: "/v1/story?seed=replay+rocket+saga"},
	}
	const maxDay = 7

	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			ss, err := ontology.ShardSnapshot(base, k)
			if err != nil {
				t.Fatal(err)
			}
			// In-process sharded reference with its own apply lineage.
			inLineage := ss
			ref := newRefWorld(t, ss, func(b delta.Batch) (*ontology.ShardedSnapshot, *delta.Delta, []bool, error) {
				d := appReplayDelta(b.Day)
				next, touched, err := delta.ApplySharded(inLineage, d)
				if err == nil {
					inLineage = next
				}
				return next, d, touched, err
			}, Options{CacheSize: 64})
			// Router fleet: each backend applies the same script to its own
			// lineage, exactly as giantd -shard -wal replays the fleet log.
			urls := make([]string, k)
			walDir := t.TempDir()
			for i := 0; i < k; i++ {
				lineage := ss
				shard := i
				back := NewShard(ss.Projection(i), Options{
					ShardIngest: func(b delta.Batch, _ wal.Record) (*ontology.ShardProjection, *delta.Delta, []bool, error) {
						d := appReplayDelta(b.Day)
						next, touched, err := delta.ApplySharded(lineage, d)
						if err != nil {
							return nil, nil, nil, err
						}
						lineage = next
						return next.Projection(shard), d, touched, nil
					},
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

			for day := 1; day <= maxDay; day++ {
				ref.step(fmt.Sprintf(`{"day":%d}`, day))
				postJSON(t, routerTS.Client(), routerTS.URL+"/v1/ingest", fmt.Sprintf(`{"day":%d}`, day), 200)
				refTS := httptest.NewServer(New(ref.current().Current(), Options{}).Handler())
				for pass := 0; pass < 2; pass++ {
					for _, req := range reqs {
						mode := fmt.Sprintf("day %d pass %d", day, pass)
						assertAppEquivalent(t, refTS, ref.Server, "sharded "+mode, req)
						assertAppEquivalent(t, refTS, routerTS, "router "+mode, req)
					}
				}
				refTS.Close()
			}
		})
	}
}

// recordingBackend records the ?q= of every /v1/query/rewrite request it
// serves, wrapping a shard handler.
type recordingBackend struct {
	h  http.Handler
	mu sync.Mutex
	qs []string
}

func (rb *recordingBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/query/rewrite" {
		rb.mu.Lock()
		rb.qs = append(rb.qs, r.URL.Query().Get("q"))
		rb.mu.Unlock()
	}
	rb.h.ServeHTTP(w, r)
}

// rewritesSince returns the rewrite queries served after the first n.
func (rb *recordingBackend) rewritesSince(n int) []string {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return append([]string(nil), rb.qs[n:]...)
}

// TestAppRoutingNormalizesKeys is the phrase-normalization regression pin
// (the routed tier used to hash the RAW q/seed): a case- or whitespace-
// mangled variant of a query answers byte-identically to the reference,
// consults exactly the shards the canonical form consults, and sends each
// of them the normalized query — variants cannot be routed differently
// from how they are analyzed.
func TestAppRoutingNormalizesKeys(t *testing.T) {
	const k = 2
	snap := testOntology(0).Snapshot()
	ss, err := ontology.ShardSnapshot(snap, k)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]*recordingBackend, k)
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		backends[i] = &recordingBackend{h: NewShard(ss.Projection(i), Options{}).Handler()}
		backTS := httptest.NewServer(backends[i])
		t.Cleanup(backTS.Close)
		urls[i] = backTS.URL
	}
	rt, err := NewRouter(RouterOptions{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	routerTS := httptest.NewServer(rt.Handler())
	t.Cleanup(routerTS.Close)
	refTS := httptest.NewServer(New(snap, Options{}).Handler())
	t.Cleanup(refTS.Close)

	// Canonical first, then variants: every response must match the
	// reference fed the SAME raw input (the raw query echoes through the
	// analysis, so the bodies differ between variants by design).
	const canonical = "family sedans"
	variants := []string{
		canonical,
		"FAMILY Sedans",
		"  family     sedans ",
		"FaMiLy\tSeDaNs",
	}
	var canonicalShards []int
	for _, q := range variants {
		seen := make([]int, k)
		for i, b := range backends {
			seen[i] = len(b.rewritesSince(0))
		}
		req := appRequest{name: "rewrite", method: http.MethodGet, path: "/v1/query/rewrite?q=" + url.QueryEscape(q)}
		assertAppEquivalent(t, refTS, routerTS, "variant "+q, req)
		var consulted []int
		for i, b := range backends {
			qs := b.rewritesSince(seen[i])
			if len(qs) == 0 {
				continue
			}
			consulted = append(consulted, i)
			for _, got := range qs {
				if got != canonical {
					t.Fatalf("variant %q: shard %d saw q=%q, want the normalized %q", q, i, got, canonical)
				}
			}
		}
		if q == canonical {
			if len(consulted) == 0 {
				t.Fatal("canonical query consulted no backend")
			}
			canonicalShards = consulted
		} else if fmt.Sprint(consulted) != fmt.Sprint(canonicalShards) {
			t.Fatalf("variant %q consulted shards %v, canonical form consulted %v", q, consulted, canonicalShards)
		}
	}

	// Story seeds and tag entities normalize the same way.
	for _, seed := range []string{"brand unveils sedan model a", "Brand UNVEILS Sedan Model A"} {
		req := appRequest{name: "story", method: http.MethodGet, path: "/v1/story?seed=" + url.QueryEscape(seed)}
		assertAppEquivalent(t, refTS, routerTS, "seed "+seed, req)
	}
	req := appRequest{name: "tag", method: http.MethodGet, path: "/v1/tag?" + url.Values{
		"title":    {"Best Family Sedans Roundup"},
		"entities": {"Sedan Model A"},
	}.Encode()}
	assertAppEquivalent(t, refTS, routerTS, "tag mixed case", req)
}

// TestAppEndpointsDegradedPolicy pins satellite parity with /v1/search:
// with a backend down, the three application endpoints fail closed with a
// 503 naming the policy, or — under -fail-open — answer 200 with
// "partial": true and the missing shard listed, never a 5xx.
func TestAppEndpointsDegradedPolicy(t *testing.T) {
	// The story seed must resolve on a LIVE shard for the fail-open tree to
	// form; kill the other one.
	seed := "brand unveils sedan model a"
	dead := 1 - ontology.HomeShard(ontology.Event, seed, 2)
	paths := []string{
		"/v1/tag?" + url.Values{"title": {"best family sedans roundup"}, "entities": {"sedan model a"}}.Encode(),
		"/v1/query/rewrite?q=" + url.QueryEscape("sedan model a"),
		"/v1/story?seed=" + url.QueryEscape(seed),
	}
	for _, failOpen := range []bool{false, true} {
		t.Run(fmt.Sprintf("failOpen=%v", failOpen), func(t *testing.T) {
			flaky, routerTS, _ := newFaultFixture(t, 2, failOpen)
			flaky[dead].down.Store(true)
			c := routerTS.Client()
			for _, p := range paths {
				status, body := getRaw(t, c, routerTS.URL+p)
				if !failOpen {
					if status != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("fail-closed")) {
						t.Fatalf("%s fail-closed: status %d body %s, want 503 naming the policy", p, status, body)
					}
					continue
				}
				if status != http.StatusOK {
					t.Fatalf("%s fail-open: status %d body %s, want 200", p, status, body)
				}
				var parsed struct {
					Partial bool  `json:"partial"`
					Missing []int `json:"missing_shards"`
				}
				if err := json.Unmarshal(body, &parsed); err != nil {
					t.Fatalf("%s: %v: %s", p, err, body)
				}
				if !parsed.Partial || len(parsed.Missing) != 1 || parsed.Missing[0] != dead {
					t.Fatalf("%s fail-open: not marked partial on shard %d: %s", p, dead, body)
				}
			}
		})
	}
}
