package main

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"giant/internal/ontology"
)

// convertFixture is a small ontology with an alias, event attributes and
// weighted edges of every type, saved as JSON at dir/ao.json.
func convertFixture(t *testing.T, dir string) (*ontology.Snapshot, string) {
	t.Helper()
	o := ontology.New()
	cat := o.AddNode(ontology.Category, "auto")
	con := o.AddNode(ontology.Concept, "family sedans")
	ent := o.AddNode(ontology.Entity, "honda civic")
	ev := o.AddNodeAt(ontology.Event, "honda unveils new civic", 7)
	o.AddAlias(con, "family sedan")
	o.SetEventAttrs(ev, "unveils", "tokyo", 7)
	for _, e := range []ontology.Edge{
		{Src: cat, Dst: con, Type: ontology.IsA, Weight: 1},
		{Src: con, Dst: ent, Type: ontology.IsA, Weight: 0.75},
		{Src: ev, Dst: ent, Type: ontology.Involve, Weight: 0.5},
		{Src: ent, Dst: con, Type: ontology.Correlate, Weight: 0.25},
	} {
		if err := o.AddEdge(e.Src, e.Dst, e.Type, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	snap := o.Snapshot()
	path := filepath.Join(dir, "ao.json")
	if err := snap.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return snap, path
}

// runLogged runs giantctl with args and returns its exit code and what it
// logged.
func runLogged(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)
	code := run(args)
	return code, buf.String()
}

// TestConvertRoundTrip: convert takes its direction from the input's
// magic, and JSON→GIANTBIN→JSON is byte-identical.
func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, jsonPath := convertFixture(t, dir)
	binPath := filepath.Join(dir, "ao.bin")
	backPath := filepath.Join(dir, "ao-rt.json")
	if code, logged := runLogged(t, "convert", "-in", jsonPath, "-out", binPath); code != 0 {
		t.Fatalf("convert JSON -> GIANTBIN exited %d: %s", code, logged)
	}
	if _, err := ontology.LoadSnapshotFile(binPath); err != nil {
		t.Fatalf("convert did not write a bootable GIANTBIN file: %v", err)
	}
	if code, logged := runLogged(t, "convert", "-in", binPath, "-out", backPath); code != 0 {
		t.Fatalf("convert GIANTBIN -> JSON exited %d: %s", code, logged)
	}
	want, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(backPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("JSON -> GIANTBIN -> JSON is not byte-identical:\n%s\nvs\n%s", got, want)
	}
}

// TestConvertRefusesShardFile: a GIANTBIN shard projection has one
// format, so convert refuses it and writes nothing.
func TestConvertRefusesShardFile(t *testing.T) {
	dir := t.TempDir()
	snap, _ := convertFixture(t, dir)
	ss, err := ontology.ShardSnapshot(snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	shardPath := filepath.Join(dir, "shard-0-of-2.bin")
	if err := ss.Projection(0).SaveBinaryFile(shardPath); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "shard.json")
	code, logged := runLogged(t, "convert", "-in", shardPath, "-out", out)
	if code != 1 || !strings.Contains(logged, "shard projection file") {
		t.Fatalf("convert of a shard file = exit %d, %q; want 1 and a shard-file refusal", code, logged)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a refused convert left %s behind", out)
	}
}

// TestJSONArtifactRefused: stats, update and shard read GIANTBIN only. A
// JSON ontology fails each with exit 1 and an error naming giantctl
// convert (update refuses it before building anything).
func TestJSONArtifactRefused(t *testing.T) {
	dir := t.TempDir()
	_, jsonPath := convertFixture(t, dir)
	batch := filepath.Join(dir, "batch.json")
	if err := os.WriteFile(batch, []byte(`{"day":12}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"stats", "-in", jsonPath},
		{"update", "-tiny", "-in", jsonPath, "-docs", batch, "-out", filepath.Join(dir, "up.bin")},
		{"shard", "-in", jsonPath, "-shards", "2", "-out-dir", dir},
	} {
		code, logged := runLogged(t, args...)
		if code != 1 || !strings.Contains(logged, "giantctl convert -in "+jsonPath) {
			t.Fatalf("giantctl %s on a JSON file = exit %d, %q; want 1 naming giantctl convert", args[0], code, logged)
		}
	}
}

// TestStatsPrintOrder pins giantctl stats' output: node types, then edge
// types, each in declaration order, the same on every run. The artifact
// goes through a GIANTBIN file, the one format stats reads.
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
