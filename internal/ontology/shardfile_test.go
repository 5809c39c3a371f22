package ontology

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// projectionOntology builds a small multi-type ontology with cross-shard
// IsA chains for projection tests.
func projectionOntology(t *testing.T) *Snapshot {
	t.Helper()
	o := New()
	root := o.AddNode(Category, "things")
	auto := o.AddNode(Category, "auto")
	if err := o.AddEdge(root, auto, IsA, 1); err != nil {
		t.Fatal(err)
	}
	sedans := o.AddNode(Concept, "family sedans")
	o.AddAlias(sedans, "sedans for families")
	if err := o.AddEdge(auto, sedans, IsA, 0.9); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		e := o.AddNode(Entity, "sedan model "+string(rune('a'+i)))
		if err := o.AddEdge(sedans, e, IsA, 1); err != nil {
			t.Fatal(err)
		}
	}
	ev := o.AddNodeAt(Event, "brand unveils sedan model a", 3)
	o.SetEventAttrs(ev, "unveils", "tokyo", 3)
	if err := o.AddEdge(ev, NodeID(3), Involve, 1); err != nil {
		t.Fatal(err)
	}
	return o.Snapshot()
}

// TestShardProjectionRoundTrip: a projection saved and reloaded is
// identical — nodes, edges, identity, the union-ID table and the derived
// indexes — and projections partition the union's home nodes and union
// IDs exactly.
func TestShardProjectionRoundTrip(t *testing.T) {
	union := projectionOntology(t)
	const k = 3
	ss, err := ShardSnapshot(union, k)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seenUnion := map[NodeID]int{}
	for i := 0; i < k; i++ {
		p := ss.Projection(i)
		if p.Shard != i || p.NumShards != k || p.HomeCount != ss.HomeCount(i) {
			t.Fatalf("projection %d identity: %+v", i, p)
		}
		if len(p.UnionIDs) != p.Snap.Len() {
			t.Fatalf("projection %d: %d union IDs for %d nodes", i, len(p.UnionIDs), p.Snap.Len())
		}
		for local, uid := range p.UnionIDs {
			if uid < 0 || int(uid) >= union.Len() {
				t.Fatalf("projection %d local %d: union ID %d out of range", i, local, uid)
			}
			un, _ := union.Get(uid)
			ln, _ := p.Snap.Get(NodeID(local))
			if un.Type != ln.Type || un.Phrase != ln.Phrase {
				t.Fatalf("projection %d local %d maps to union %d: %q != %q", i, local, uid, ln.Phrase, un.Phrase)
			}
			if back, ok := p.LocalOf(uid); !ok || back != NodeID(local) {
				t.Fatalf("projection %d: LocalOf(%d) = %d,%v", i, uid, back, ok)
			}
			if p.IsHome(NodeID(local)) {
				seenUnion[uid]++
			}
		}

		path := filepath.Join(dir, "shard.bin")
		if err := p.SaveBinaryFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := LoadShardInput(path, p.Shard, p.NumShards)
		if err != nil {
			t.Fatal(err)
		}
		if got.Shard != p.Shard || got.NumShards != p.NumShards || got.HomeCount != p.HomeCount {
			t.Fatalf("round trip identity: %+v vs %+v", got, p)
		}
		if !reflect.DeepEqual(got.UnionIDs, p.UnionIDs) {
			t.Fatal("round trip union IDs diverge")
		}
		if !reflect.DeepEqual(got.Snap.Nodes(), p.Snap.Nodes()) || !reflect.DeepEqual(got.Snap.Edges(), p.Snap.Edges()) {
			t.Fatal("round trip nodes/edges diverge")
		}
	}
	// Home nodes partition the union exactly.
	if len(seenUnion) != union.Len() {
		t.Fatalf("home nodes cover %d of %d union nodes", len(seenUnion), union.Len())
	}
	for uid, n := range seenUnion {
		if n != 1 {
			t.Fatalf("union node %d homed on %d shards", uid, n)
		}
	}
}

// TestShardProjectionSearchAndStats: merging every shard's SearchHome in
// union-ID order reproduces the union scan, and summing HomeStats/owned
// edges reproduces the union's stats.
func TestShardProjectionSearchAndStats(t *testing.T) {
	union := projectionOntology(t)
	for _, k := range []int{1, 2, 4} {
		ss, err := ShardSnapshot(union, k)
		if err != nil {
			t.Fatal(err)
		}
		projs := make([]*ShardProjection, k)
		for i := range projs {
			projs[i] = ss.Projection(i)
		}
		for _, q := range []string{"sedan", "model", "auto", "zzz", "families"} {
			for _, limit := range []int{1, 3, 100} {
				want := union.Search(q, limit)
				var got []Node
				for _, p := range projs {
					for _, n := range p.SearchHome(q, limit) {
						n.ID = p.UnionID(n.ID)
						got = append(got, n)
					}
				}
				sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
				if len(got) > limit {
					got = got[:limit]
				}
				if len(got) != len(want) {
					t.Fatalf("k=%d q=%q limit=%d: %d hits, want %d", k, q, limit, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID || got[i].Phrase != want[i].Phrase {
						t.Fatalf("k=%d q=%q hit %d: %+v != %+v", k, q, i, got[i], want[i])
					}
				}
			}
		}
		nodes, owned := 0, 0
		nbt, ebt := map[string]int{}, map[string]int{}
		for _, p := range projs {
			nodes += p.HomeCount
			owned += p.OwnedEdgeCount()
			hs := p.HomeStats()
			for typ, n := range hs.NodesByType {
				nbt[typ] += n
			}
			for typ, n := range hs.EdgesByType {
				ebt[typ] += n
			}
		}
		if nodes != union.NodeCount() || owned != union.EdgeCount() {
			t.Fatalf("k=%d: summed %d nodes/%d owned edges, union has %d/%d", k, nodes, owned, union.NodeCount(), union.EdgeCount())
		}
		us := union.ComputeStats()
		if !reflect.DeepEqual(nbt, us.NodesByType) || !reflect.DeepEqual(ebt, us.EdgesByType) {
			t.Fatalf("k=%d: summed stats diverge: %v/%v vs %v/%v", k, nbt, ebt, us.NodesByType, us.EdgesByType)
		}
	}
}

// TestLoadShardInput: a shard file boots directly (with identity
// validation), a snapshot file is partitioned on the fly, and mismatched
// identities, JSON files (a whole ontology or an old JSON shard file) and
// malformed GIANTBIN files are rejected.
func TestLoadShardInput(t *testing.T) {
	union := projectionOntology(t)
	ss, err := ShardSnapshot(union, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	shardPath := filepath.Join(dir, "shard-1.bin")
	if err := ss.Projection(1).SaveBinaryFile(shardPath); err != nil {
		t.Fatal(err)
	}
	unionPath := filepath.Join(dir, "ao.bin")
	if err := union.SaveBinaryFile(unionPath); err != nil {
		t.Fatal(err)
	}

	p, err := LoadShardInput(shardPath, 1, 2)
	if err != nil || p.Shard != 1 || p.NumShards != 2 {
		t.Fatalf("LoadShardInput(shard file) = %+v, %v", p, err)
	}
	if _, err := LoadShardInput(shardPath, 0, 2); err == nil || !strings.Contains(err.Error(), "holds shard 1/2") {
		t.Fatalf("identity mismatch not rejected: %v", err)
	}
	p2, err := LoadShardInput(unionPath, 1, 2)
	if err != nil {
		t.Fatalf("LoadShardInput(union file): %v", err)
	}
	if p2.HomeCount != p.HomeCount || !reflect.DeepEqual(p2.UnionIDs, p.UnionIDs) {
		t.Fatal("union-derived projection diverges from the exported shard file")
	}
	// The inverse confusion: a shard file must not load as a whole
	// ontology (its local-ID world would silently serve wrong).
	if _, err := LoadSnapshotFile(shardPath); err == nil || !strings.Contains(err.Error(), "shard projection") {
		t.Fatalf("shard file accepted as a whole ontology: %v", err)
	}
	// JSON is never booted: the whole ontology and a JSON shard file from
	// before shard files became GIANTBIN only are both refused by both
	// loaders, with ErrBadMagic and the convert hint. Converting the old
	// shard file fails too, naming the way out.
	jsonPath := filepath.Join(dir, "ao.json")
	if err := union.SaveFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	oldPath := filepath.Join(dir, "shard-1-of-2.json")
	oldShard := `{"shard":1,"num_shards":2,"home_count":1,"union_ids":[0],"nodes":[{"id":0,"type":0,"phrase":"x"}],"edges":[]}`
	if err := os.WriteFile(oldPath, []byte(oldShard), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{jsonPath, oldPath} {
		for name, load := range map[string]func() error{
			"LoadShardInput":   func() error { _, err := LoadShardInput(path, 1, 2); return err },
			"LoadSnapshotFile": func() error { _, err := LoadSnapshotFile(path); return err },
		} {
			if err := load(); !errors.Is(err, ErrBadMagic) || !strings.Contains(err.Error(), "giantctl convert") {
				t.Fatalf("%s(%s) = %v, want ErrBadMagic naming giantctl convert", name, filepath.Base(path), err)
			}
		}
	}
	if _, err := SnapshotFromJSON(strings.NewReader(oldShard)); err == nil || !strings.Contains(err.Error(), "re-export it with giantctl shard") {
		t.Fatalf("JSON shard file not refused by the import path with the re-export hint: %v", err)
	}
	// A shard file that fails to decode is an error, never reinterpreted
	// as a union: truncated, a flipped header bit, a home count past the
	// node count, and a union-ID table out of its ascending order
	// (checksums re-stamped, so only projection validation can catch the
	// last two) each fail with their typed error.
	data, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[40] ^= 0x01 // the header's node count: the kind still reads shard
	home := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(home[24:32], uint64(p.Snap.Len()+1))
	binary.LittleEndian.PutUint32(home[60:64], crc32.Checksum(home[:60], crcTable))
	unordered := append([]byte(nil), data...)
	for i := 0; i < int(binary.LittleEndian.Uint32(unordered[56:60])); i++ {
		ent := unordered[binHeaderSize+binTableEntry*i:]
		if binary.LittleEndian.Uint32(ent[0:]) != secUnionIDs {
			continue
		}
		// Swap the first two home union IDs, then re-stamp the section.
		off, n := binary.LittleEndian.Uint64(ent[8:]), binary.LittleEndian.Uint64(ent[16:])
		ids := unordered[off : off+n]
		a := binary.LittleEndian.Uint32(ids[0:])
		binary.LittleEndian.PutUint32(ids[0:], binary.LittleEndian.Uint32(ids[4:]))
		binary.LittleEndian.PutUint32(ids[4:], a)
		binary.LittleEndian.PutUint32(ent[24:], crc32.Checksum(ids, crcTable))
	}
	if p.HomeCount < 2 {
		t.Fatalf("shard 1 homes %d nodes; the union-ID case needs two", p.HomeCount)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
		msg  string
	}{
		{"truncated", data[:len(data)-1], ErrTruncated, ""},
		{"bit flip", flipped, ErrChecksum, ""},
		{"home count", home, ErrCorrupt, "home count"},
		{"union ID order", unordered, ErrCorrupt, "ascending segment"},
	} {
		path := filepath.Join(dir, "bad-shard.bin")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadShardInput(path, 1, 2)
		if got != nil || !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("%s shard file: %v, %v; want no projection and %v", tc.name, got, err, tc.want)
		}
	}
}
