package storytree

import (
	"bytes"
	"strings"
	"testing"

	"giant/internal/phrase"
)

func newTF(events []*EventNode) *phrase.TFIDF {
	tf := phrase.NewTFIDF()
	for _, e := range events {
		tf.AddDoc(e.Entities)
	}
	return tf
}

func enc() Encoder { return NewBagOfTokensEncoder(8, nil) }

func ev(phrase, trigger string, day int, ents ...string) *EventNode {
	return &EventNode{Phrase: phrase, Trigger: trigger, Day: day, Entities: ents}
}

func TestRetrieveSharedEntityOrTrigger(t *testing.T) {
	seed := ev("acme release earnings", "release", 1, "acme")
	cands := []*EventNode{
		ev("acme announce merger", "announce", 2, "acme"),     // shared entity
		ev("globex release earnings", "release", 3, "globex"), // shared trigger
		ev("unrelated thing happen", "happen", 4, "nobody"),   // neither
	}
	got := Retrieve(seed, cands, DefaultOptions())
	if len(got) != 3 { // seed + two related
		t.Fatalf("retrieved %d", len(got))
	}
	for _, e := range got {
		if e.Phrase == "unrelated thing happen" {
			t.Fatal("unrelated event retrieved")
		}
	}
	// Without the restriction everything comes back.
	opt := DefaultOptions()
	opt.RequireSharedEntityOrTrigger = false
	if got := Retrieve(seed, cands, opt); len(got) != 4 {
		t.Fatalf("unrestricted retrieve = %d", len(got))
	}
}

func TestSimilarityComponents(t *testing.T) {
	e := enc()
	a := ev("acme release earnings", "release", 1, "acme")
	b := ev("acme release earnings again", "release", 2, "acme")
	c := ev("zorp cancel tour", "cancel", 3, "zorp")
	tf := newTF([]*EventNode{a, b, c})
	sAB := Similarity(a, b, e, tf)
	sAC := Similarity(a, c, e, tf)
	if sAB <= sAC {
		t.Fatalf("similar events %v <= dissimilar %v", sAB, sAC)
	}
	// Same trigger contributes the fg term fully.
	if fg := encode(a, e, tf).fg(encode(b, e, tf)); fg != 1 {
		t.Fatalf("fg same trigger = %v", fg)
	}
}

func TestFormBranchesTimeOrdered(t *testing.T) {
	seed := ev("acme release earnings", "release", 5, "acme")
	cands := []*EventNode{
		ev("acme release earnings preview", "release", 1, "acme"),
		ev("acme release earnings call", "release", 9, "acme"),
		ev("globex release earnings", "release", 3, "globex"),
	}
	tree := Form(seed, cands, enc(), DefaultOptions())
	if len(tree.Branches) == 0 {
		t.Fatal("no branches")
	}
	for _, b := range tree.Branches {
		for i := 1; i < len(b); i++ {
			if b[i].Day < b[i-1].Day {
				t.Fatal("branch not time-ordered")
			}
		}
	}
	evs := tree.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Day < evs[i-1].Day {
			t.Fatal("Events() not time-ordered")
		}
	}
	// Follow-ups strictly after the given day.
	for _, f := range tree.FollowUps(5) {
		if f.Day <= 5 {
			t.Fatalf("follow-up on day %d", f.Day)
		}
	}
}

func TestRender(t *testing.T) {
	seed := ev("acme release earnings", "release", 1, "acme")
	tree := Form(seed, nil, enc(), DefaultOptions())
	var buf bytes.Buffer
	tree.Render(&buf)
	if !strings.Contains(buf.String(), "acme release earnings") {
		t.Fatalf("render output: %s", buf.String())
	}
}

func TestEncoderProperties(t *testing.T) {
	e := NewBagOfTokensEncoder(8, map[string][]float64{"known": {1, 0, 0, 0, 0, 0, 0, 0}})
	if got := e.WordVector("known"); got[0] != 1 {
		t.Fatal("lookup vector ignored")
	}
	// Hash vectors are deterministic.
	a := e.WordVector("mystery")
	b := e.WordVector("mystery")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("hash vector not deterministic")
		}
	}
	// Phrase vector ignores stop words.
	pv := e.PhraseVector("the known")
	if pv[0] != 1 {
		t.Fatalf("phrase vector = %v", pv)
	}
}

// countingEncoder counts the encoder calls Form makes.
type countingEncoder struct {
	Encoder
	phrase, word int
}

func (c *countingEncoder) PhraseVector(p string) []float64 {
	c.phrase++
	return c.Encoder.PhraseVector(p)
}

func (c *countingEncoder) WordVector(w string) []float64 {
	c.word++
	return c.Encoder.WordVector(w)
}

// TestFormEncodesEachEventOnce pins that Form encodes each retrieved event
// once, not once per pair: one PhraseVector per retrieved event and one
// WordVector per retrieved event with a trigger.
func TestFormEncodesEachEventOnce(t *testing.T) {
	events := pinnedEvents()
	for _, seed := range events[:10] {
		retrieved := Retrieve(seed, events, DefaultOptions())
		triggers := 0
		for _, e := range retrieved {
			if e.Trigger != "" {
				triggers++
			}
		}
		enc := &countingEncoder{Encoder: NewBagOfTokensEncoder(16, nil)}
		Form(seed, events, enc, DefaultOptions())
		if len(retrieved) < 2 || enc.phrase != len(retrieved) || enc.word != triggers {
			t.Fatalf("seed %q: %d retrieved (%d with a trigger), %d PhraseVector and %d WordVector calls",
				seed.Phrase, len(retrieved), triggers, enc.phrase, enc.word)
		}
	}
}
