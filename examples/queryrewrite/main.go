// Queryrewrite: the §4 query-understanding application — conceptualize
// concept-bearing queries, rewrite them with member entities, and recommend
// correlated entities for entity queries.
package main

import (
	"fmt"
	"log"

	giant "giant"
	"giant/internal/ontology"
)

func main() {
	sys, err := giant.Build(giant.TinyConfig())
	if err != nil {
		log.Fatal(err)
	}
	u := sys.Query()
	snap := sys.Snapshot()

	// Concept query: rewrite with instances.
	var conceptPhrase string
	for _, c := range snap.Nodes(ontology.Concept) {
		if len(snap.Children(c.ID, ontology.IsA)) > 0 {
			conceptPhrase = c.Phrase
			break
		}
	}
	if conceptPhrase != "" {
		q := "best " + conceptPhrase
		a := u.Analyze(q)
		fmt.Printf("query: %q\n  conveys concept %q\n", q, a.Concept)
		for _, r := range a.Rewrites {
			fmt.Printf("  rewrite: %q\n", r)
		}
	}

	// Entity query: recommend correlated entities.
	for _, e := range snap.Nodes(ontology.Entity) {
		a := u.Analyze(e.Phrase)
		if len(a.Recommendations) > 0 {
			fmt.Printf("\nquery: %q\n  conveys entity %q\n", e.Phrase, a.Entity)
			for _, r := range a.Recommendations {
				fmt.Printf("  users also searched: %q\n", r)
			}
			break
		}
	}
}
