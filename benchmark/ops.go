package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"giant/internal/delta"
	"giant/internal/ontology"
	"giant/internal/synth"
	"giant/internal/tagging"
)

type opKind uint8

const (
	kindSearch opKind = iota
	kindNode
	kindTag
	kindRewrite
	kindStory
	kindIngest
	numKinds
)

// readKinds are the five read endpoints, in the order their per-kind
// metrics are listed.
var readKinds = []opKind{kindSearch, kindNode, kindTag, kindRewrite, kindStory}

func (k opKind) String() string {
	return [...]string{"search", "node", "tag", "rewrite", "story", "ingest"}[k]
}

// op is one pre-built request: nothing is formatted or marshalled inside
// a timed loop.
type op struct {
	kind   opKind
	hot    bool // drawn from the hot set: must be answered from the response cache
	method string
	uri    string // path and query
	body   []byte

	// The arguments of the direct layer call the trace replays for this op.
	arg   string          // search needle, rewrite query, or story seed (canonical phrase)
	limit int             // search limit
	node  ontology.NodeID // node lookup target
	doc   int             // index of the tag document in vocab.docs / vocab.tagDocs
}

// mix is the share of each read kind in percent; it sums to 100.
type mix [numKinds]int

// readMix is the traffic mix of every first-time read stream. It is
// shaped so that no reported percentile sits on the boundary between two
// kinds, where one op more or less of a kind would move it by the gap
// between them. Ordered by cost the kinds are node, search, then rewrite
// and tag (tag is the dearer of the two on one snapshot, the cheaper under
// the sharded fold), then story. With these shares the median of a cold
// round lies in the middle of the tag latencies on either order, its p90 a
// third of the way into the story latencies, and the median miss of
// single_cached (the p90 of a round with exactly 20 % misses) a third of
// the way into the tag latencies.
var readMix = mix{kindTag: 50, kindSearch: 15, kindRewrite: 10, kindNode: 10, kindStory: 15}

// hotMix is the single_cached hot set: only what giantd caches (GETs other
// than /v1/tag), in readMix's proportions.
var hotMix = mix{kindSearch: 30, kindRewrite: 20, kindNode: 20, kindStory: 30}

// vocab is everything op generation draws from. It is derived from the
// built corpus only, so the same corpus gives the same vocabulary whatever
// the seed; the seed decides which entries an op list uses and in what
// order.
type vocab struct {
	nodes   []ontology.Node
	events  []string           // event phrases (story seeds)
	needles []string           // lowercase substrings of node phrases
	phrases []string           // concept and entity phrases (query subjects)
	docs    [][]byte           // pre-marshalled POST /v1/tag bodies
	tagDocs []tagging.Document // the same documents, for direct tagger calls
	clicks  []delta.Click
	lastDay int
}

func newVocab(snap *ontology.Snapshot, world *synth.World, log *synth.Log) *vocab {
	v := &vocab{nodes: snap.Nodes()}
	needles := map[string]struct{}{}
	for i := range v.nodes {
		n := &v.nodes[i]
		switch n.Type {
		case ontology.Event:
			v.events = append(v.events, n.Phrase)
		case ontology.Concept, ontology.Entity:
			v.phrases = append(v.phrases, n.Phrase)
		}
		for _, tok := range strings.Fields(strings.ToLower(n.Phrase)) {
			// Every prefix of three letters or more is a distinct substring
			// search with its own match set.
			for l := 3; l <= len(tok); l++ {
				needles[tok[:l]] = struct{}{}
			}
		}
	}
	for n := range needles {
		v.needles = append(v.needles, n)
	}
	sort.Strings(v.needles)
	for i := range log.Docs {
		d := &log.Docs[i]
		req := struct {
			Title    string   `json:"title"`
			Content  string   `json:"content"`
			Entities []string `json:"entities"`
		}{Title: d.Title, Content: d.Content}
		for _, id := range d.Entities {
			req.Entities = append(req.Entities, world.Entities[id].Name)
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // strings and string slices always marshal
		}
		v.docs = append(v.docs, body)
		v.tagDocs = append(v.tagDocs, tagging.Document{Title: req.Title, Content: req.Content, Entities: req.Entities})
	}
	for _, r := range log.Records {
		if r.Day > v.lastDay {
			v.lastDay = r.Day
		}
	}
	for _, r := range log.Records {
		v.clicks = append(v.clicks, delta.Click{Query: r.Query, DocID: r.DocID, Clicks: 1, Day: v.lastDay})
	}
	return v
}

// queryTemplates wrap a phrase into a user-style query.
var queryTemplates = []string{
	"best %s", "top 10 %s", "%s list", "what are the %s", "cheap %s", "%s reviews",
	"new %s", "%s 2020", "compare %s", "%s", "latest %s", "recommended %s",
}

// opGen draws ops from a vocabulary with a seeded generator. While unique
// is set (the default), every read it returns has a request URI (and, for
// search, a lowercased needle and limit) it has not returned before, so
// each one misses every response and partial cache of every serving mode.
type opGen struct {
	v      *vocab
	rng    *rand.Rand
	unique bool
	seen   map[string]struct{}
}

func newOpGen(v *vocab, seed int64) *opGen {
	return &opGen{v: v, rng: rand.New(rand.NewSource(seed)), unique: true, seen: map[string]struct{}{}}
}

// randomCase upper-cases each letter with probability one half. Phrase
// lookups fold case, so the variant resolves to the same node while its
// URI is new.
func randomCase(rng *rand.Rand, s string) string {
	out := []rune(s)
	for i, r := range out {
		if rng.Intn(2) == 0 {
			out[i] = unicode.ToUpper(r)
		}
	}
	return string(out)
}

// fresh retries draw until it yields an op whose URI was not used before.
func (g *opGen) fresh(draw func() op) op {
	for {
		o := draw()
		if !g.unique {
			return o
		}
		if _, dup := g.seen[o.uri]; !dup {
			g.seen[o.uri] = struct{}{}
			return o
		}
	}
}

func (g *opGen) read(kind opKind) op {
	v, rng := g.v, g.rng
	switch kind {
	case kindSearch:
		return g.fresh(func() op {
			needle, limit := v.needles[rng.Intn(len(v.needles))], 1+rng.Intn(100)
			return op{kind: kind, method: "GET", arg: needle, limit: limit,
				uri: "/v1/search?q=" + url.QueryEscape(needle) + "&limit=" + strconv.Itoa(limit)}
		})
	case kindNode:
		return g.fresh(func() op {
			n := &v.nodes[rng.Intn(len(v.nodes))]
			o := op{kind: kind, method: "GET", node: n.ID}
			switch rng.Intn(4) {
			case 0:
				// Leading zeros make a repeated id a new URI.
				o.uri = "/v1/node?id=" + strings.Repeat("0", rng.Intn(6)) + strconv.Itoa(int(n.ID))
			case 1:
				// An untyped phrase resolves in node-type order and may land on
				// a same-phrase node of an earlier type; the handler decides.
				o.uri = "/v1/node?phrase=" + url.QueryEscape(randomCase(rng, n.Phrase))
			default:
				o.uri = "/v1/node?phrase=" + url.QueryEscape(randomCase(rng, n.Phrase)) + "&type=" + n.Type.String()
			}
			return o
		})
	case kindTag:
		d := rng.Intn(len(v.docs))
		return op{kind: kind, method: "POST", uri: "/v1/tag", body: v.docs[d], doc: d}
	case kindRewrite:
		return g.fresh(func() op {
			q := randomCase(rng, fmt.Sprintf(queryTemplates[rng.Intn(len(queryTemplates))], v.phrases[rng.Intn(len(v.phrases))]))
			return op{kind: kind, method: "GET", arg: q, uri: "/v1/query/rewrite?q=" + url.QueryEscape(q)}
		})
	case kindStory:
		return g.fresh(func() op {
			seed := v.events[rng.Intn(len(v.events))]
			return op{kind: kind, method: "GET", arg: seed, uri: "/v1/story?seed=" + url.QueryEscape(randomCase(rng, seed))}
		})
	}
	panic("read: not a read kind: " + kind.String())
}

// reads returns n first-time reads holding exactly m's share of each kind
// (remainders go to the kinds with the largest shares), in seeded order.
func (g *opGen) reads(n int, m mix) []op {
	kinds := make([]opKind, 0, n)
	for _, k := range readKinds {
		for i := 0; i < n*m[k]/100; i++ {
			kinds = append(kinds, k)
		}
	}
	byShare := append([]opKind(nil), readKinds...)
	sort.SliceStable(byShare, func(i, j int) bool { return m[byShare[i]] > m[byShare[j]] })
	for i := 0; len(kinds) < n; i++ {
		kinds = append(kinds, byShare[i%len(byShare)])
	}
	g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	ops := make([]op, n)
	for i, k := range kinds {
		ops[i] = g.read(k)
	}
	return ops
}

// touchBatch returns a POST /v1/ingest of n clicks that re-observe
// existing (query, doc) pairs on the corpus's last day: the affected
// neighbourhood is re-mined and nodes are touched, but nothing ages out.
func (g *opGen) touchBatch(n int) op {
	b := delta.Batch{Day: g.v.lastDay, Clicks: make([]delta.Click, n)}
	for i := range b.Clicks {
		b.Clicks[i] = g.v.clicks[g.rng.Intn(len(g.v.clicks))]
	}
	body, err := json.Marshal(b)
	if err != nil {
		panic(err) // a Batch of strings and ints always marshals
	}
	return op{kind: kindIngest, method: "POST", uri: "/v1/ingest", body: body}
}

// interleave builds n ops in which every period-th op (positions period-1,
// 2*period-1, …) is the next of minor and every other op the next of
// major, cycling through major as often as needed.
func interleave(n, period int, major, minor []op) []op {
	out := make([]op, n)
	mi, mj := 0, 0
	for i := range out {
		if i%period == period-1 {
			out[i] = minor[mi]
			mi++
		} else {
			out[i] = major[mj%len(major)]
			mj++
		}
	}
	return out
}

// sampleBlocks returns the indexes of every block of `block` consecutive
// ops whose block number is phase modulo every. Sampling whole blocks keeps
// a period-5 interleaving's ratio inside the sample; two phases give two
// disjoint samples of the same shape.
func sampleBlocks(n, block, every, phase int) []int {
	var idx []int
	for i := 0; i < n; i++ {
		if (i/block)%every == phase {
			idx = append(idx, i)
		}
	}
	return idx
}

// sampleOps is sampleBlocks applied: the ops of blocks of five.
func sampleOps(ops []op, every, phase int) []op {
	idx := sampleBlocks(len(ops), 5, every, phase)
	out := make([]op, len(idx))
	for i, j := range idx {
		out[i] = ops[j]
	}
	return out
}
