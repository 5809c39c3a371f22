package giant

// Golden replay pin for the incremental path. A fixed, seeded sequence of
// update batches — sub-day click slices (mostly touch-only), batches that
// bring new documents (new concepts with an existing suffix parent, new
// events contained in / containing existing ones) and TTL retirements — is
// fed through System.Ingest and System.IngestSharded, and in both modes the
// sha256 of every returned generation and of the final Ontology.WriteJSON
// must match the one pair of constants below. The constants were recorded
// from the commit BEFORE Ingest's cost was made to track the batch
// (full-world copy per batch, full-inventory linking scans, allocating
// R-GCN inference), so any change to the kernel that alters a single output
// byte fails here.

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"giant/internal/delta"
	"giant/internal/ontology"
)

const (
	goldenIngestFinal    = "32e6d6c490248f40147d5446074770bd48c6585272180e9a2a0db1b973aec720"
	goldenIngestChain    = "ccc35857787e4d0b20986d31afe407ed158509f9a4be3aa4d7f982c939a06dd6"
	goldenReplaySplitDay = 4
)

// goldenBatches derives the replay from the full tiny log: days past the
// split cut into 8 seeded slices each, three new-document batches woven in,
// and a closing empty batch two days on that ages more events out.
func goldenBatches(t *testing.T, full *System) []delta.Batch {
	t.Helper()
	rng := rand.New(rand.NewSource(20260929))
	maxDay := maxRecordDay(full)
	var out []delta.Batch
	for day := goldenReplaySplitDay + 1; day <= maxDay; day++ {
		var clicks []delta.Click
		for _, r := range full.Log.Records {
			if r.Day == day {
				clicks = append(clicks, delta.Click{Query: r.Query, DocID: r.DocID, Clicks: r.Clicks, Day: r.Day})
			}
		}
		rng.Shuffle(len(clicks), func(i, j int) { clicks[i], clicks[j] = clicks[j], clicks[i] })
		const slices = 8
		for s := 0; s < slices; s++ {
			lo, hi := s*len(clicks)/slices, (s+1)*len(clicks)/slices
			out = append(out, delta.Batch{Day: day, Clicks: clicks[lo:hi]})
		}
		switch day {
		case 6:
			// A new concept whose token suffix ("flagship phones") is an
			// existing concept: the restricted suffix scan must find the
			// pair with the NEW phrase as child.
			out = append(out, delta.Batch{Day: day,
				Docs: []delta.Doc{
					{ID: -1, Title: "the famous budget flagship phones of the year", Category: 18, Day: day},
					{ID: -1, Title: "budget flagship phones everyone is buying", Category: 18, Day: day},
				},
				Clicks: []delta.Click{
					{Query: "best budget flagship phones", DocID: -1, Clicks: 9},
					{Query: "top 10 budget flagship phones", DocID: -1, Clicks: 4},
					{Query: "best budget flagship phones", DocID: -2, Clicks: 3},
					{Query: "what are the budget flagship phones ?", DocID: -2, Clicks: 5},
				}})
		case 7:
			// New events around an existing event doc's phrase: one longer
			// (the existing event becomes its containment parent) and one
			// about a different entity.
			ev := full.Log.Docs[75] // "breaking : <entity> recall announcement , fans react"
			ent := full.World.Entities[ev.Entities[0]].Name
			other := full.World.Entities[3].Name
			out = append(out, delta.Batch{Day: day,
				Docs: []delta.Doc{
					{ID: -1, Title: "breaking : " + ent + " recall announcement in brenplorn pel , fans react", Category: ev.Category, Entities: []string{ent}, Day: day},
					{ID: -1, Title: "breaking : " + other + " recall announcement , fans react", Category: 18, Entities: []string{other}, Day: day},
				},
				Clicks: []delta.Click{
					{Query: ent + " recall announcement in brenplorn pel", DocID: -1, Clicks: 6},
					{Query: ent + " recall announcement in brenplorn pel news", DocID: -1, Clicks: 2},
					{Query: other + " recall announcement", DocID: -2, Clicks: 7},
					{Query: other + " recall announcement news", DocID: -2, Clicks: 3},
				}})
		case 8:
			// A new concept that is the suffix PARENT of nothing yet and a
			// longer sibling in the same batch (new parent and new child).
			out = append(out, delta.Batch{Day: day,
				Docs: []delta.Doc{
					{ID: -1, Title: "the famous trail runners of the year", Category: 22, Day: day},
					{ID: -1, Title: "the famous mountain trail runners of the year", Category: 22, Day: day},
				},
				Clicks: []delta.Click{
					{Query: "best trail runners", DocID: -1, Clicks: 8},
					{Query: "top 10 trail runners", DocID: -1, Clicks: 5},
					{Query: "best mountain trail runners", DocID: -2, Clicks: 6},
					{Query: "top 10 mountain trail runners", DocID: -2, Clicks: 2},
				}})
		}
	}
	out = append(out, delta.Batch{Day: maxDay + 2})
	return out
}

type goldenTally struct {
	adds, touches, retires, suffixEdges, containEdges int
}

func (g *goldenTally) count(d *delta.Delta) {
	g.adds += len(d.Add)
	g.touches += len(d.Touch)
	g.retires += len(d.Retire)
	for _, e := range d.Edges {
		if e.Type != ontology.IsA || e.SrcType != e.DstType {
			continue
		}
		switch e.SrcType {
		case ontology.Concept:
			g.suffixEdges++
		case ontology.Event:
			g.containEdges++
		}
	}
}

func TestGoldenIngestReplay(t *testing.T) {
	cfg := TinyConfig()
	cfg.Update = delta.Policy{EventTTL: 4}
	full, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	batches := goldenBatches(t, full)
	if len(batches) < 40 {
		t.Fatalf("replay has %d batches, want >= 40", len(batches))
	}

	for _, mode := range []struct {
		name   string
		shards int
	}{
		{"Ingest", 1},
		{"IngestSharded", 2},
	} {
		t.Run(mode.name, func(t *testing.T) {
			c := cfg
			c.Shards = mode.shards
			sys, err := BuildUpToDay(c, goldenReplaySplitDay)
			if err != nil {
				t.Fatalf("BuildUpToDay: %v", err)
			}
			chain := sha256.New()
			var tally goldenTally
			for i, b := range batches {
				var snap *ontology.Snapshot
				var d *delta.Delta
				if mode.shards > 1 {
					ss, dd, _, err := sys.IngestSharded(b, nil)
					if err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
					snap, d = ss.Union(), dd
				} else {
					if snap, d, err = sys.Ingest(b); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
				}
				if err := snap.WriteJSON(chain); err != nil {
					t.Fatal(err)
				}
				tally.count(d)
			}
			if tally.adds == 0 || tally.touches == 0 || tally.retires == 0 || tally.suffixEdges == 0 || tally.containEdges == 0 {
				t.Fatalf("replay is not exercising every path: %+v", tally)
			}
			final := sha256.New()
			if err := sys.Ontology.WriteJSON(final); err != nil {
				t.Fatal(err)
			}
			gotFinal, gotChain := hex.EncodeToString(final.Sum(nil)), hex.EncodeToString(chain.Sum(nil))
			if gotFinal != goldenIngestFinal || gotChain != goldenIngestChain {
				t.Fatalf("golden replay diverged (%d batches, %+v):\n final %s (want %s)\n chain %s (want %s)",
					len(batches), tally, gotFinal, goldenIngestFinal, gotChain, goldenIngestChain)
			}
		})
	}
}
