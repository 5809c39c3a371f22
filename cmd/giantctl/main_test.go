package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"giant/internal/ontology"
)

// TestStatsPrintOrder pins giantctl stats' output: node types, then edge
// types, each in declaration order, the same on every run. The artifact
// goes through the binary format, which stats reads like JSON.
func TestStatsPrintOrder(t *testing.T) {
	o := ontology.New()
	cat := o.AddNode(ontology.Category, "auto")
	con := o.AddNode(ontology.Concept, "family sedans")
	ent := o.AddNode(ontology.Entity, "honda civic")
	other := o.AddNode(ontology.Entity, "honda accord")
	top := o.AddNode(ontology.Topic, "honda launch season")
	ev := o.AddNode(ontology.Event, "honda unveils new accord")
	for _, e := range []ontology.Edge{
		{Src: cat, Dst: con, Type: ontology.IsA},
		{Src: con, Dst: ent, Type: ontology.IsA},
		{Src: top, Dst: ev, Type: ontology.IsA},
		{Src: ev, Dst: other, Type: ontology.Involve},
		{Src: ent, Dst: other, Type: ontology.Correlate},
	} {
		if err := o.AddEdge(e.Src, e.Dst, e.Type, 1); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "ao.bin")
	if err := o.Snapshot().SaveBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	snap, err := ontology.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = `nodes:
  category   1
  concept    1
  entity     2
  topic      1
  event      1
edges:
  isA        3
  involve    1
  correlate  1
`
	for run := 0; run < 20; run++ {
		var buf bytes.Buffer
		printStats(&buf, snap.ComputeStats())
		if got := buf.String(); got != want {
			t.Fatalf("run %d printed:\n%s\nwant:\n%s", run, got, want)
		}
	}
}
