// Package synth generates the deterministic synthetic "web" this
// reproduction mines. The paper builds its Attention Ontology from Tencent QQ
// Browser search click logs — proprietary, Chinese, and billions of records.
// This package substitutes a generative world with the same structural
// signals: a category hierarchy, concepts (modifier + class) grouping
// entities, topics (class + trigger) grouping events, and query/click logs
// whose queries and document titles mention the gold phrases with noise
// words, reordering and partial spans. Because the world is generated, every
// downstream task has exact ground truth.
package synth

import (
	"fmt"
	"math/rand"
	"strings"

	"giant/internal/nlp"
)

// Category is one node of the pre-defined 3-level category hierarchy
// (paper: 1,206 categories; scaled down here).
type Category struct {
	ID     int
	Name   string
	Level  int // 1..3
	Parent int // index into World.Categories, -1 for roots
}

// Entity is a leaf instance (paper: "iPhone XS", "Honda Civic").
type Entity struct {
	ID       int
	Name     string // lower-case surface form, possibly multi-token
	Class    int    // index into World.Classes
	Concepts []int  // concept IDs this entity belongs to (ground-truth isA)
	Category int    // category ID
	NER      nlp.NER
}

// Concept is a modifier+class phrase grouping entities
// (paper: "fuel-efficient cars"). "Detailed" concepts carry a secondary
// modifier that users omit in queries but document titles spell out —
// the query-title conformity GIANT's alignment strategy exploits ("Miyazaki
// movies" in the query vs "Hayao Miyazaki animated film" in titles).
type Concept struct {
	ID       int
	Phrase   string // gold phrase, e.g. "fuel-efficient family cars"
	Short    string // query form, e.g. "fuel-efficient cars" (== Phrase when not detailed)
	Tokens   []string
	Modifier string
	Class    int
	Category int
	Entities []int // ground-truth isA children
}

// Topic is a class-level event pattern (paper: "Singer will have a concert").
type Topic struct {
	ID      int
	Phrase  string // e.g. "singer hold concert"
	Tokens  []string
	Class   int
	Trigger string
	Events  []int
}

// Event is an instantiated topic (paper: "Jay Chou will have a concert"),
// carrying the four event attributes: entities, trigger, time, location.
type Event struct {
	ID       int
	Phrase   string // e.g. "narveta hold concert in veldora 2018"
	Tokens   []string
	Topic    int
	Entities []int // entity IDs involved
	Trigger  string
	Location string // "" if none
	Day      int    // day index within the simulated period
	Category int
}

// Class is an entity class: the head noun shared by its concepts and topics.
type Class struct {
	ID        int
	Noun      string // singular, e.g. "car"
	Plural    string
	Category  int
	Modifiers []string
	Triggers  []string
	NER       nlp.NER
}

// World is the complete generated universe plus its lexicon.
type World struct {
	Config     Config
	Categories []Category
	Classes    []Class
	Concepts   []Concept
	Entities   []Entity
	Topics     []Topic
	Events     []Event
	Locations  []string
	Lexicon    *nlp.Lexicon

	entityByName  map[string]int
	entityByToken map[string]int // token -> first entity whose name holds it
	rng           *rand.Rand
}

// Config controls world scale.
type Config struct {
	Seed              int64
	NumClasses        int // entity classes (each yields concepts+topics)
	ModifiersPerClass int
	EntitiesPerClass  int
	ConceptsPerEntity int // how many concepts each entity joins (>=1)
	TopicsPerClass    int
	EventsPerTopic    int
	NumLocations      int
	Days              int // simulated period length (event timestamps)
}

// DefaultConfig is a laptop-scale world: ~40 classes, ~240 concepts,
// ~1200 entities, ~80 topics, ~480 events.
func DefaultConfig() Config {
	return Config{
		Seed:              7,
		NumClasses:        40,
		ModifiersPerClass: 6,
		EntitiesPerClass:  30,
		ConceptsPerEntity: 2,
		TopicsPerClass:    2,
		EventsPerTopic:    6,
		NumLocations:      24,
		Days:              31,
	}
}

// TinyConfig is for unit tests.
func TinyConfig() Config {
	return Config{
		Seed:              1,
		NumClasses:        6,
		ModifiersPerClass: 3,
		EntitiesPerClass:  8,
		ConceptsPerEntity: 2,
		TopicsPerClass:    2,
		EventsPerTopic:    3,
		NumLocations:      6,
		Days:              10,
	}
}

// seedDomains are hand-written anchors; further classes are generated.
// Each row: top-level category, mid category, class noun, modifiers, triggers.
var seedDomains = []struct {
	top, mid, noun string
	modifiers      []string
	triggers       []string
	ner            nlp.NER
}{
	{"technology", "mobile", "phone",
		[]string{"flagship", "budget", "foldable", "waterproof", "gaming", "compact"},
		[]string{"launch event", "explosion incident"}, nlp.NerProduct},
	{"auto", "vehicles", "car",
		[]string{"fuel-efficient", "economy", "family", "luxury", "electric", "offroad"},
		[]string{"recall announcement", "crash test"}, nlp.NerProduct},
	{"entertainment", "film", "movie",
		[]string{"animated", "sci-fi", "superhero", "oscar-winning", "indie", "horror"},
		[]string{"premiere night", "sequel announcement"}, nlp.NerWork},
	{"entertainment", "music", "singer",
		[]string{"pop", "folk", "jazz", "rock", "indie", "award-winning"},
		[]string{"hold concert", "release album"}, nlp.NerPerson},
	{"sports", "athletics", "runner",
		[]string{"long-distance", "sprint", "marathon", "olympic", "veteran", "rookie"},
		[]string{"win marathon", "break record"}, nlp.NerPerson},
	{"entertainment", "television", "series",
		[]string{"crime", "fantasy", "comedy", "documentary", "medical", "period"},
		[]string{"finale broadcast", "renewal announcement"}, nlp.NerWork},
	{"reading", "books", "novel",
		[]string{"detective", "romance", "dystopian", "historical", "graphic", "debut"},
		[]string{"book signing", "adaptation deal"}, nlp.NerWork},
	{"games", "esports", "team",
		[]string{"professional", "amateur", "champion", "underdog", "regional", "legendary"},
		[]string{"win final", "sign player"}, nlp.NerOrg},
	{"finance", "markets", "company",
		[]string{"blue-chip", "startup", "multinational", "state-owned", "listed", "private"},
		[]string{"release earnings", "announce merger"}, nlp.NerOrg},
	{"food", "dining", "restaurant",
		[]string{"family", "vegan", "seafood", "rooftop", "michelin", "riverside"},
		[]string{"open branch", "win award"}, nlp.NerOrg},
}

// GenWorld builds the world for cfg. Generation is fully deterministic in
// cfg.Seed.
func GenWorld(cfg Config) *World {
	w := &World{
		Config:        cfg,
		Lexicon:       nlp.NewLexicon(),
		entityByName:  make(map[string]int),
		entityByToken: make(map[string]int),
		rng:           rand.New(rand.NewSource(cfg.Seed)),
	}
	ng := newNameGen(w.rng)

	// Category hierarchy: roots and mid-levels come from seeds plus
	// generated fillers; classes become third-level categories.
	rootIdx := map[string]int{}
	midIdx := map[string]int{}
	addCat := func(name string, level, parent int) int {
		id := len(w.Categories)
		w.Categories = append(w.Categories, Category{ID: id, Name: name, Level: level, Parent: parent})
		return id
	}
	for _, d := range seedDomains {
		if _, ok := rootIdx[d.top]; !ok {
			rootIdx[d.top] = addCat(d.top, 1, -1)
		}
		key := d.top + "/" + d.mid
		if _, ok := midIdx[key]; !ok {
			midIdx[key] = addCat(d.mid, 2, rootIdx[d.top])
		}
	}

	// Classes: cycle through seeds; beyond the seed count, synthesize new
	// class nouns under generated mid-level categories.
	for c := 0; c < cfg.NumClasses; c++ {
		d := seedDomains[c%len(seedDomains)]
		noun := d.noun
		mods := append([]string(nil), d.modifiers...)
		trigs := append([]string(nil), d.triggers...)
		midKey := d.top + "/" + d.mid
		if c >= len(seedDomains) {
			noun = ng.noun()
			for i := range mods {
				mods[i] = ng.adjective()
			}
			for i := range trigs {
				trigs[i] = ng.verb() + " " + ng.noun()
			}
			mid := ng.noun() + " zone"
			midKey = d.top + "/" + mid
			if _, ok := midIdx[midKey]; !ok {
				midIdx[midKey] = addCat(mid, 2, rootIdx[d.top])
			}
		}
		if len(mods) > cfg.ModifiersPerClass {
			mods = mods[:cfg.ModifiersPerClass]
		}
		for len(mods) < cfg.ModifiersPerClass {
			mods = append(mods, ng.adjective())
		}
		catID := addCat(noun+" "+"category", 3, midIdx[midKey])
		cls := Class{
			ID: c, Noun: noun, Plural: pluralize(noun), Category: catID,
			Modifiers: mods, Triggers: trigs, NER: d.ner,
		}
		w.Classes = append(w.Classes, cls)
		w.Lexicon.Register(noun, nlp.PosNoun, nlp.NerNone)
		w.Lexicon.Register(cls.Plural, nlp.PosNoun, nlp.NerNone)
		for _, m := range mods {
			w.Lexicon.Register(m, nlp.PosAdj, nlp.NerNone)
		}
		for _, t := range trigs {
			parts := strings.Fields(t)
			w.Lexicon.Register(parts[0], nlp.PosVerb, nlp.NerNone)
			for _, p := range parts[1:] {
				w.Lexicon.Register(p, nlp.PosNoun, nlp.NerNone)
			}
		}
	}

	// Locations.
	for i := 0; i < cfg.NumLocations; i++ {
		loc := ng.properName(2)
		w.Locations = append(w.Locations, loc)
		w.Lexicon.Register(loc, nlp.PosPropn, nlp.NerLoc)
	}

	// Concepts: one per (class, modifier). ~40% are "detailed": the gold
	// phrase inserts a second modifier that queries omit.
	for ci := range w.Classes {
		cls := &w.Classes[ci]
		for mi, m := range cls.Modifiers {
			id := len(w.Concepts)
			short := m + " " + cls.Plural
			phrase := short
			if w.rng.Float64() < 0.4 && len(cls.Modifiers) > 1 {
				m2 := cls.Modifiers[(mi+1)%len(cls.Modifiers)]
				phrase = m + " " + m2 + " " + cls.Plural
			}
			con := Concept{
				ID: id, Phrase: phrase, Short: short,
				Tokens:   nlp.Tokenize(phrase),
				Modifier: m, Class: ci, Category: cls.Category,
			}
			w.Concepts = append(w.Concepts, con)
		}
	}

	// Entities: per class, each joining ConceptsPerEntity concepts.
	clsConcepts := make([][]int, len(w.Classes))
	for i, c := range w.Concepts {
		clsConcepts[c.Class] = append(clsConcepts[c.Class], i)
	}
	for ci := range w.Classes {
		cls := &w.Classes[ci]
		for e := 0; e < cfg.EntitiesPerClass; e++ {
			name := ng.properName(2)
			for _, taken := w.entityByName[name]; taken; _, taken = w.entityByName[name] {
				name = ng.properName(2)
			}
			id := len(w.Entities)
			ent := Entity{ID: id, Name: name, Class: ci, Category: cls.Category, NER: cls.NER}
			pool := clsConcepts[ci]
			k := cfg.ConceptsPerEntity
			if k > len(pool) {
				k = len(pool)
			}
			for _, pi := range w.rng.Perm(len(pool))[:k] {
				cid := pool[pi]
				ent.Concepts = append(ent.Concepts, cid)
				w.Concepts[cid].Entities = append(w.Concepts[cid].Entities, id)
			}
			w.Entities = append(w.Entities, ent)
			w.entityByName[name] = id
			w.indexEntityTokens(id)
			w.Lexicon.Register(name, nlp.PosPropn, cls.NER)
		}
	}

	// Topics and events.
	entsByClass := make([][]int, len(w.Classes))
	for i, e := range w.Entities {
		entsByClass[e.Class] = append(entsByClass[e.Class], i)
	}
	for ci := range w.Classes {
		cls := &w.Classes[ci]
		nt := cfg.TopicsPerClass
		if nt > len(cls.Triggers) {
			nt = len(cls.Triggers)
		}
		for t := 0; t < nt; t++ {
			trig := cls.Triggers[t]
			tid := len(w.Topics)
			phrase := cls.Noun + " " + trig
			top := Topic{
				ID: tid, Phrase: phrase, Tokens: nlp.Tokenize(phrase),
				Class: ci, Trigger: strings.Fields(trig)[0],
			}
			for ev := 0; ev < cfg.EventsPerTopic; ev++ {
				ents := entsByClass[ci]
				if len(ents) == 0 {
					break
				}
				ent := ents[w.rng.Intn(len(ents))]
				loc := ""
				if w.rng.Float64() < 0.7 && len(w.Locations) > 0 {
					loc = w.Locations[w.rng.Intn(len(w.Locations))]
				}
				day := w.rng.Intn(maxInt(cfg.Days, 1))
				ephrase := w.Entities[ent].Name + " " + trig
				if loc != "" {
					ephrase += " in " + loc
				}
				eid := len(w.Events)
				evt := Event{
					ID: eid, Phrase: ephrase, Tokens: nlp.Tokenize(ephrase),
					Topic: tid, Entities: []int{ent}, Trigger: top.Trigger,
					Location: loc, Day: day, Category: cls.Category,
				}
				// ~25% of events involve a second same-class entity
				// (drives the correlate ground truth).
				if w.rng.Float64() < 0.25 {
					other := ents[w.rng.Intn(len(ents))]
					if other != ent {
						evt.Entities = append(evt.Entities, other)
					}
				}
				top.Events = append(top.Events, eid)
				w.Events = append(w.Events, evt)
			}
			w.Topics = append(w.Topics, top)
		}
	}
	return w
}

// EntityByName returns the ground-truth entity with the given surface name.
func (w *World) EntityByName(n string) (Entity, bool) {
	id, ok := w.entityByName[n]
	if !ok {
		return Entity{}, false
	}
	return w.Entities[id], true
}

// indexEntityTokens adds entity id's name tokens to the token index; a
// token an earlier entity's name holds stays with that entity.
func (w *World) indexEntityTokens(id int) {
	for _, tok := range nlp.Tokenize(w.Entities[id].Name) {
		if _, taken := w.entityByToken[tok]; !taken {
			w.entityByToken[tok] = id
		}
	}
}

// EntityNameOfToken returns the name of the first entity, in Entities
// order, whose tokenized name holds tok.
func (w *World) EntityNameOfToken(tok string) (string, bool) {
	id, ok := w.entityByToken[tok]
	if !ok {
		return "", false
	}
	return w.Entities[id].Name, true
}

// DateOf renders a day index as a date string within the simulated period
// (July 16 – August 15 2019, matching Fig. 6/7's x-axis).
func DateOf(day int) string {
	month, d := 7, 16+day
	if d > 31 {
		month, d = 8, d-31
	}
	return fmt.Sprintf("2019-%02d-%02d", month, d)
}

func pluralize(n string) string {
	switch {
	case strings.HasSuffix(n, "s"):
		return n
	case strings.HasSuffix(n, "y"):
		return n[:len(n)-1] + "ies"
	default:
		return n + "s"
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
