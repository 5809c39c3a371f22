package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"giant/internal/nlp"
	"giant/internal/ontology"
	"giant/internal/synth"
)

// Table1Row is one row of Table 1 (node inventory).
type Table1Row struct {
	Type     string
	Quantity int
	// GrowPerDay is the average number of new nodes per simulated day
	// (Table 1 reports it for concepts and events; -1 means not tracked).
	GrowPerDay float64
}

// Table1 counts attention-ontology nodes by type and growth.
func Table1(env *Env) []Table1Row {
	o := env.Sys.Snapshot()
	days := env.World.Config.Days
	if days < 1 {
		days = 1
	}
	rows := make([]Table1Row, 0, 5)
	for _, t := range []ontology.NodeType{
		ontology.Category, ontology.Concept, ontology.Topic,
		ontology.Event, ontology.Entity,
	} {
		r := Table1Row{Type: t.String(), Quantity: o.NodeCount(t), GrowPerDay: -1}
		if t == ontology.Concept || t == ontology.Event {
			grown := 0
			for d := 1; d < days; d++ {
				grown += o.GrowthOn(t, d)
			}
			r.GrowPerDay = float64(grown) / float64(days-1+1)
		}
		rows = append(rows, r)
	}
	return rows
}

// Table2Row is one row of Table 2 (edge inventory + accuracy).
type Table2Row struct {
	Type     string
	Quantity int
	Accuracy float64 // against ground truth (the paper used human judges)
}

// Table2 counts edges and scores them against the generative ground truth.
func Table2(env *Env) []Table2Row {
	o := env.Sys.Snapshot()
	rows := make([]Table2Row, 0, 3)
	for _, t := range []ontology.EdgeType{ontology.IsA, ontology.Correlate, ontology.Involve} {
		edges := o.Edges(t)
		correct := 0
		for _, e := range edges {
			if edgeIsCorrect(env, o, e) {
				correct++
			}
		}
		acc := 1.0
		if len(edges) > 0 {
			acc = float64(correct) / float64(len(edges))
		}
		rows = append(rows, Table2Row{Type: t.String(), Quantity: len(edges), Accuracy: acc})
	}
	return rows
}

// edgeIsCorrect consults the world's ground truth for one ontology edge.
func edgeIsCorrect(env *Env, o *ontology.Snapshot, e ontology.Edge) bool {
	src, _ := o.Get(e.Src)
	dst, _ := o.Get(e.Dst)
	w := env.World
	switch e.Type {
	case ontology.IsA:
		switch {
		case src.Type == ontology.Category && dst.Type == ontology.Category:
			return true // mirrored from the predefined hierarchy
		case src.Type == ontology.Category && (dst.Type == ontology.Concept || dst.Type == ontology.Event):
			return categoryMatches(env, src.Phrase, dst.Phrase)
		case src.Type == ontology.Concept && dst.Type == ontology.Entity:
			ent, ok := w.EntityByName(dst.Phrase)
			if !ok {
				return false
			}
			for _, cid := range ent.Concepts {
				if conceptCovers(w.Concepts[cid].Phrase, src.Phrase) {
					return true
				}
			}
			// Derived parents (CSD suffixes) of a true concept also count.
			return suffixOfAnyConcept(w, ent, src.Phrase)
		case src.Type == ontology.Concept && dst.Type == ontology.Concept:
			return strings.HasSuffix(" "+dst.Phrase, " "+src.Phrase)
		case src.Type == ontology.Topic && dst.Type == ontology.Event:
			return true // CPD topics are built from their member events
		case src.Type == ontology.Event && dst.Type == ontology.Event:
			return containsTokens(dst.Phrase, src.Phrase)
		}
	case ontology.Involve:
		switch {
		case src.Type == ontology.Event && dst.Type == ontology.Entity:
			return eventInvolvesEntity(w, src.Phrase, dst.Phrase)
		case src.Type == ontology.Topic && dst.Type == ontology.Concept:
			return containsTokens(src.Phrase, dst.Phrase)
		}
	case ontology.Correlate:
		if src.Type == ontology.Concept && dst.Type == ontology.Concept {
			return conceptsShareEntity(env, src.Phrase, dst.Phrase)
		}
		return entitiesCoOccur(env, src.Phrase, dst.Phrase)
	}
	return false
}

// conceptsShareEntity checks the ground truth behind a concept-concept
// correlate edge: the two mined concepts map to gold concepts sharing at
// least one entity.
func conceptsShareEntity(env *Env, a, b string) bool {
	w := env.World
	entsOf := func(p string) map[int]bool {
		out := map[int]bool{}
		for _, c := range w.Concepts {
			if conceptCovers(c.Phrase, p) {
				for _, e := range c.Entities {
					out[e] = true
				}
			}
		}
		return out
	}
	ea := entsOf(a)
	for e := range entsOf(b) {
		if ea[e] {
			return true
		}
	}
	return false
}

func categoryMatches(env *Env, catName, phrase string) bool {
	// True when the mined phrase's generating concept/event lives under a
	// category with this name (any level, via the hierarchy).
	w := env.World
	for _, c := range w.Concepts {
		if conceptCovers(c.Phrase, phrase) {
			return categoryChainHas(w, c.Category, catName)
		}
	}
	for _, ev := range w.Events {
		if containsTokens(phrase, ev.Phrase) || containsTokens(ev.Phrase, phrase) {
			return categoryChainHas(w, ev.Category, catName)
		}
	}
	return false
}

func categoryChainHas(w *synth.World, cat int, name string) bool {
	for cat >= 0 && cat < len(w.Categories) {
		if w.Categories[cat].Name == name {
			return true
		}
		cat = w.Categories[cat].Parent
	}
	return false
}

// conceptCovers reports whether mined phrase m corresponds to gold concept
// phrase g (exact or g's tokens ⊆ m's non-stop tokens).
func conceptCovers(gold, mined string) bool {
	if gold == mined {
		return true
	}
	return containsTokens(mined, gold) || containsTokens(gold, mined)
}

// containsTokens reports whether every non-stop token of inner occurs in
// outer.
func containsTokens(outer, inner string) bool {
	os := map[string]bool{}
	for _, t := range nlp.Tokenize(outer) {
		os[t] = true
	}
	any := false
	for _, t := range nlp.Tokenize(inner) {
		if nlp.IsStopWord(t) {
			continue
		}
		any = true
		if !os[t] {
			return false
		}
	}
	return any
}

func suffixOfAnyConcept(w *synth.World, ent synth.Entity, phrase string) bool {
	for _, cid := range ent.Concepts {
		if strings.HasSuffix(" "+w.Concepts[cid].Phrase, " "+phrase) {
			return true
		}
	}
	return false
}

func eventInvolvesEntity(w *synth.World, eventPhrase, entityName string) bool {
	for _, ev := range w.Events {
		if !containsTokens(eventPhrase, ev.Phrase) && !containsTokens(ev.Phrase, eventPhrase) {
			continue
		}
		for _, eid := range ev.Entities {
			if w.Entities[eid].Name == entityName {
				return true
			}
		}
	}
	return false
}

func entitiesCoOccur(env *Env, a, b string) bool {
	ea, ok1 := env.World.EntityByName(a)
	eb, ok2 := env.World.EntityByName(b)
	if !ok1 || !ok2 {
		return false
	}
	for _, d := range env.Sys.Log.Docs {
		hasA, hasB := false, false
		for _, id := range d.Entities {
			if id == ea.ID {
				hasA = true
			}
			if id == eb.ID {
				hasB = true
			}
		}
		if hasA && hasB {
			return true
		}
	}
	return false
}

// ShowcaseRow is a Table 3 / Table 4 row.
type ShowcaseRow struct {
	Category string
	Parent   string // concept (T3) or topic (T4); "" when none linked
	Phrase   string
	Related  []string // entities (instances or involved)
}

// Table3 samples concept showcases with their categories and instances.
func Table3(env *Env, n int) []ShowcaseRow {
	o := env.Sys.Snapshot()
	var rows []ShowcaseRow
	concepts := o.Nodes(ontology.Concept)
	sort.Slice(concepts, func(i, j int) bool { return concepts[i].Phrase < concepts[j].Phrase })
	for _, c := range concepts {
		ents := entityChildren(o, c.ID)
		if len(ents) == 0 {
			continue
		}
		rows = append(rows, ShowcaseRow{
			Category: firstCategoryParent(o, c.ID),
			Phrase:   c.Phrase,
			Related:  ents,
		})
		if len(rows) >= n {
			break
		}
	}
	return rows
}

// Table4 samples event showcases with topics and involved entities.
func Table4(env *Env, n int) []ShowcaseRow {
	o := env.Sys.Snapshot()
	var rows []ShowcaseRow
	events := o.Nodes(ontology.Event)
	sort.Slice(events, func(i, j int) bool { return events[i].Phrase < events[j].Phrase })
	for _, ev := range events {
		var involved []string
		for _, e := range o.Children(ev.ID, ontology.Involve) {
			involved = append(involved, e.Phrase)
		}
		if len(involved) == 0 {
			continue
		}
		topic := ""
		for _, p := range o.Parents(ev.ID, ontology.IsA) {
			if p.Type == ontology.Topic {
				topic = p.Phrase
				break
			}
		}
		rows = append(rows, ShowcaseRow{
			Category: firstCategoryParent(o, ev.ID),
			Parent:   topic,
			Phrase:   ev.Phrase,
			Related:  involved,
		})
		if len(rows) >= n {
			break
		}
	}
	return rows
}

func entityChildren(o *ontology.Snapshot, id ontology.NodeID) []string {
	var out []string
	for _, c := range o.Children(id, ontology.IsA) {
		if c.Type == ontology.Entity {
			out = append(out, c.Phrase)
		}
	}
	sort.Strings(out)
	if len(out) > 3 {
		out = out[:3]
	}
	return out
}

func firstCategoryParent(o *ontology.Snapshot, id ontology.NodeID) string {
	for _, p := range o.Parents(id, ontology.IsA) {
		if p.Type == ontology.Category {
			return p.Phrase
		}
	}
	return ""
}

// PrintTable1 renders Table 1 in the paper's layout.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: Nodes in the attention ontology")
	fmt.Fprintf(w, "%-10s %10s %10s\n", "Type", "Quantity", "Grow/day")
	for _, r := range rows {
		g := "-"
		if r.GrowPerDay >= 0 {
			g = fmt.Sprintf("%.1f", r.GrowPerDay)
		}
		fmt.Fprintf(w, "%-10s %10d %10s\n", r.Type, r.Quantity, g)
	}
}

// PrintTable2 renders Table 2.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: Edges in the attention ontology")
	fmt.Fprintf(w, "%-10s %10s %10s\n", "Type", "Quantity", "Accuracy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10d %9.1f%%\n", r.Type, r.Quantity, 100*r.Accuracy)
	}
}

// PrintShowcase renders Table 3/4.
func PrintShowcase(w io.Writer, title string, rows []ShowcaseRow) {
	fmt.Fprintln(w, title)
	for _, r := range rows {
		parent := r.Parent
		if parent != "" {
			parent = " [" + parent + "]"
		}
		fmt.Fprintf(w, "  %-24s %s%s -> %s\n", r.Category, r.Phrase, parent, strings.Join(r.Related, ", "))
	}
}
