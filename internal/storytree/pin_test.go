package storytree

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// pinnedEvents is a seeded synthetic candidate set whose events share
// entities and triggers heavily, so every similarity term (phrase cosine,
// trigger cosine, entity TF-IDF cosine with repeated and multi-token
// entities) and every clustering decision shows up in the output.
func pinnedEvents() []*EventNode {
	r := rand.New(rand.NewSource(20201014))
	ents := []string{"acme", "globex", "initech", "umbrella corp", "hooli", "stark industries",
		"wayne enterprises", "tyrell", "cyberdyne", "soylent", "oscorp", "wonka"}
	triggers := []string{"release", "announce", "acquire", "cancel", "launch", "sue", ""}
	objects := []string{"earnings", "merger", "phone", "tour", "lawsuit", "recall", "factory", "the new model"}
	locs := []string{"", "tokyo", "berlin", "austin"}
	var out []*EventNode
	for i := 0; i < 72; i++ {
		trig := triggers[r.Intn(len(triggers))]
		e := &EventNode{
			Trigger:  trig,
			Location: locs[r.Intn(len(locs))],
			Day:      r.Intn(30),
		}
		for k := r.Intn(4); k > 0; k-- {
			e.Entities = append(e.Entities, ents[r.Intn(len(ents))])
		}
		subj := "someone"
		if len(e.Entities) > 0 {
			subj = e.Entities[0]
		}
		verb := trig
		if verb == "" {
			verb = "discuss"
		}
		e.Phrase = fmt.Sprintf("%s %s %s %d", subj, verb, objects[r.Intn(len(objects))], i)
		out = append(out, e)
	}
	return out
}

// TestFormPinned hashes Render plus the JSON of Form for every seed of the
// pinned candidate set. The constant was recorded at commit 18251bd
// ("Train GCTSP-Net in a third of the time, bit for bit"), before Form
// encoded each retrieved event once; any change to a similarity bit, a
// merge decision or the branch order moves it.
func TestFormPinned(t *testing.T) {
	const want = "45fb4bceb8ebb082ae183ec8be7862b523937925dcaaad65d87cc48a1f830f2a"
	events := pinnedEvents()
	enc := NewBagOfTokensEncoder(16, nil)
	h := sha256.New()
	for _, seed := range events {
		tree := Form(seed, events, enc, DefaultOptions())
		var buf bytes.Buffer
		tree.Render(&buf)
		js, err := json.Marshal(tree)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(buf.Bytes())
		h.Write(js)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Form output hash = %s, want %s", got, want)
	}
}
