package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"net/url"
	"testing"

	giant "giant"
	"giant/internal/ontology"
)

// TestColdReadPinned pins the application endpoints of a `giantd -build
// -tiny` server (trained Duet, concept context) to the byte: one sha256
// over the status and body of /v1/story for every event seed, /v1/tag for
// a fixed list of corpus documents and /v1/query/rewrite for a fixed list
// of concept, entity and logged queries. The constants were recorded at
// commit 18251bd ("Train GCTSP-Net in a third of the time, bit for bit"),
// before story formation encoded each event once and before tagging and
// rewriting read cached phrase tokens.
func TestColdReadPinned(t *testing.T) {
	const (
		wantStory   = "4dc4bdf07f8d11a46e39a7072b96d1ccee7f453037494308f4aef50cb842726c"
		wantTag     = "3517a937f9bae76ab557a92055c8a33278a728e6cf36d07a6fb12aad520f0eb4"
		wantRewrite = "f868af38e9c4f48801d104f2e2cb931c718f2d05ec1e67283ee1669359e84289"
		wantCounts  = "33 40 120"
	)
	sys, err := giant.Build(giant.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	srv := New(snap, Options{ConceptContextFn: sys.ConceptContext, Duet: sys.EventTagger().Duet})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	record := func(h io.Writer, status int, body []byte) {
		h.Write([]byte{byte(status >> 8), byte(status)})
		h.Write(body)
	}

	story := sha256.New()
	events := snap.Nodes(ontology.Event)
	for _, ev := range events {
		status, body := getRaw(t, c, ts.URL+"/v1/story?seed="+url.QueryEscape(ev.Phrase))
		record(story, status, body)
	}

	tag := sha256.New()
	var docs []int
	for i := 0; i < len(sys.Log.Docs) && len(docs) < 40; i += max(1, len(sys.Log.Docs)/40) {
		docs = append(docs, i)
	}
	for _, i := range docs {
		d := &sys.Log.Docs[i]
		req := tagRequest{Title: d.Title, Content: d.Content}
		for _, id := range d.Entities {
			req.Entities = append(req.Entities, sys.World.Entities[id].Name)
		}
		js, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Post(ts.URL+"/v1/tag", "application/json", bytes.NewReader(js))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		record(tag, resp.StatusCode, body)
	}

	var queries []string
	for _, n := range snap.Nodes(ontology.Concept) {
		queries = append(queries, "best "+n.Phrase)
	}
	for _, n := range snap.Nodes(ontology.Entity) {
		queries = append(queries, n.Phrase)
	}
	for _, r := range sys.Log.Records {
		if len(queries) == 120 {
			break
		}
		queries = append(queries, r.Query)
	}
	rewrite := sha256.New()
	for _, q := range queries {
		status, body := getRaw(t, c, ts.URL+"/v1/query/rewrite?q="+url.QueryEscape(q))
		record(rewrite, status, body)
	}

	got := func(h interface{ Sum([]byte) []byte }) string { return hex.EncodeToString(h.Sum(nil)) }
	if counts := fmt.Sprint(len(events), len(docs), len(queries)); counts != wantCounts {
		t.Fatalf("request counts = %q, want %q", counts, wantCounts)
	}
	for _, c := range []struct{ name, got, want string }{
		{"story", got(story), wantStory},
		{"tag", got(tag), wantTag},
		{"rewrite", got(rewrite), wantRewrite},
	} {
		if c.got != c.want {
			t.Errorf("/v1/%s bodies hash = %s, want %s", c.name, c.got, c.want)
		}
	}
}
