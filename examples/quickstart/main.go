// Quickstart: build the Attention Ontology end to end on the tiny synthetic
// world and walk its structure — the minimal GIANT workflow.
package main

import (
	"fmt"
	"log"

	giant "giant"
	"giant/internal/ontology"
)

func main() {
	// Build: generate a search click log, train GCTSP-Net, mine attention
	// phrases (Algorithm 1) and link them into the ontology (§3.2).
	sys, err := giant.Build(giant.TinyConfig())
	if err != nil {
		log.Fatal(err)
	}

	snap := sys.Snapshot()
	st := snap.ComputeStats()
	fmt.Println("Attention Ontology built:")
	for _, t := range []string{"category", "concept", "entity", "topic", "event"} {
		fmt.Printf("  %-9s %4d nodes\n", t, st.NodesByType[t])
	}
	for _, t := range []string{"isA", "involve", "correlate"} {
		fmt.Printf("  %-9s %4d edges\n", t, st.EdgesByType[t])
	}

	// Walk one concept: its category parents and entity instances.
	for _, c := range snap.Nodes(ontology.Concept) {
		ents := snap.Children(c.ID, ontology.IsA)
		if len(ents) == 0 {
			continue
		}
		fmt.Printf("\nconcept %q\n", c.Phrase)
		for _, p := range snap.Parents(c.ID, ontology.IsA) {
			fmt.Printf("  isA-parent: %s %q\n", p.Type, p.Phrase)
		}
		for i, e := range ents {
			if i == 3 {
				fmt.Printf("  ... and %d more\n", len(ents)-3)
				break
			}
			fmt.Printf("  instance:   %q\n", e.Phrase)
		}
		break
	}

	// Mined events carry the four event attributes.
	for _, m := range sys.Mined {
		if m.IsEvent && m.Trigger != "" {
			fmt.Printf("\nevent %q\n  trigger %q entities %v location %q day %d\n",
				m.Phrase, m.Trigger, m.Entities, m.Location, m.Day)
			break
		}
	}
}
