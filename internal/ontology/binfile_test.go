package ontology

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// encodeSnapshotBinary is a test helper returning the GIANTBIN bytes of a
// snapshot.
func encodeSnapshotBinary(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

// TestBinaryRoundTripByteIdenticalJSON is the format-fidelity pin: for a
// rich fixture and a sweep of randomized ontologies, JSON→binary→JSON is
// byte-identical, so the binary format provably loses nothing the JSON
// format persists.
func TestBinaryRoundTripByteIdenticalJSON(t *testing.T) {
	snaps := []*Snapshot{richOntology().Snapshot(), New().Snapshot()}
	for seed := int64(0); seed < 20; seed++ {
		snaps = append(snaps, randomOntology(seed).Snapshot())
	}
	for i, snap := range snaps {
		var wantJSON bytes.Buffer
		if err := snap.WriteJSON(&wantJSON); err != nil {
			t.Fatal(err)
		}
		data := encodeSnapshotBinary(t, snap)
		back, err := DecodeSnapshotBinary(data)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		var gotJSON bytes.Buffer
		if err := back.WriteJSON(&gotJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
			t.Fatalf("case %d: JSON→binary→JSON not byte-identical\nwant: %s\ngot:  %s", i, wantJSON.Bytes(), gotJSON.Bytes())
		}
		// Second encode of the decoded snapshot must also be stable.
		if !bytes.Equal(data, encodeSnapshotBinary(t, back)) {
			t.Fatalf("case %d: binary encode not stable across a decode", i)
		}
	}
}

// TestBinaryDecodedSnapshotReads checks the decoded snapshot answers reads
// (lookups, traversals, stats, search) identically to the original — the
// indexes rebuilt over file-backed columns behave like freshly built ones.
func TestBinaryDecodedSnapshotReads(t *testing.T) {
	snap := richOntology().Snapshot()
	back, err := DecodeSnapshotBinary(encodeSnapshotBinary(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Nodes(), back.Nodes()) {
		t.Fatal("nodes differ")
	}
	if !reflect.DeepEqual(snap.Edges(), back.Edges()) {
		t.Fatal("edges differ")
	}
	if !reflect.DeepEqual(snap.ComputeStats(), back.ComputeStats()) {
		t.Fatal("stats differ")
	}
	if id, ok := back.Lookup(Concept, "Family Sedans"); !ok {
		t.Fatal("phrase lookup failed on decoded snapshot")
	} else if id2, _ := snap.Lookup(Concept, "Family Sedans"); id != id2 {
		t.Fatalf("lookup: got %d want %d", id, id2)
	}
	if _, ok := back.LookupAlias(Concept, "family sedan"); !ok {
		t.Fatal("alias lookup failed on decoded snapshot")
	}
	if !reflect.DeepEqual(snap.Search("honda", 0), back.Search("honda", 0)) {
		t.Fatal("search differs")
	}
	for id := 0; id < snap.Len(); id++ {
		if !reflect.DeepEqual(snap.Ancestors(NodeID(id)), back.Ancestors(NodeID(id))) {
			t.Fatalf("ancestors of %d differ", id)
		}
		if !reflect.DeepEqual(snap.Children(NodeID(id), IsA), back.Children(NodeID(id), IsA)) {
			t.Fatalf("children of %d differ", id)
		}
	}
}

// TestBinaryShardRoundTrip: a shard projection written as GIANTBIN loads
// back with identity, union-ID table, reverse index and per-shard reads
// intact, and matches the in-memory projection it was written from.
func TestBinaryShardRoundTrip(t *testing.T) {
	union := projectionOntology(t)
	ss, err := ShardSnapshot(union, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		p := ss.Projection(i)
		binPath := filepath.Join(dir, "shard.bin")
		if err := p.SaveBinaryFile(binPath); err != nil {
			t.Fatal(err)
		}
		fromBin, err := LoadShardFile(binPath)
		if err != nil {
			t.Fatalf("shard %d: load binary: %v", i, err)
		}
		if fromBin.Shard != i || fromBin.NumShards != 3 || fromBin.HomeCount != p.HomeCount {
			t.Fatalf("shard %d identity: %+v", i, fromBin)
		}
		if !reflect.DeepEqual(fromBin.UnionIDs, p.UnionIDs) {
			t.Fatalf("shard %d union IDs differ", i)
		}
		if !reflect.DeepEqual(fromBin.Snap.Nodes(), p.Snap.Nodes()) {
			t.Fatalf("shard %d nodes differ", i)
		}
		if !reflect.DeepEqual(fromBin.Snap.Edges(), p.Snap.Edges()) {
			t.Fatalf("shard %d edges differ", i)
		}
		if !reflect.DeepEqual(fromBin.SearchHome("sedan", 0), p.SearchHome("sedan", 0)) {
			t.Fatalf("shard %d home search differs", i)
		}
		if !reflect.DeepEqual(fromBin.HomeStats(), p.HomeStats()) {
			t.Fatalf("shard %d home stats differ", i)
		}
		for _, uid := range p.UnionIDs {
			a, aok := fromBin.LocalOf(uid)
			b, bok := p.LocalOf(uid)
			if aok != bok || a != b {
				t.Fatalf("shard %d: LocalOf(%d) = %d,%v want %d,%v", i, uid, a, aok, b, bok)
			}
		}
	}
}

// TestBinaryHeader: ReadBinaryHeader surfaces identity without loading,
// for both kinds.
func TestBinaryHeader(t *testing.T) {
	snap := richOntology().Snapshot()
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "ao.bin")
	if err := snap.SaveBinaryFile(snapPath); err != nil {
		t.Fatal(err)
	}
	h, err := ReadBinaryHeader(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != "snapshot" || h.Version != BinaryVersion || h.Nodes != snap.Len() || h.Edges != snap.EdgeCount() {
		t.Fatalf("snapshot header: %+v", h)
	}

	ss, err := ShardSnapshot(projectionOntology(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	p := ss.Projection(1)
	shardPath := filepath.Join(dir, "shard.bin")
	if err := p.SaveBinaryFile(shardPath); err != nil {
		t.Fatal(err)
	}
	h, err = ReadBinaryHeader(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != "shard" || h.Shard != 1 || h.NumShards != 2 || h.HomeCount != p.HomeCount {
		t.Fatalf("shard header: %+v", h)
	}

	jsonPath := filepath.Join(dir, "ao.json")
	if err := snap.SaveFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinaryHeader(jsonPath); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("header of JSON file: %v, want ErrBadMagic", err)
	}
}

// sectionBoundaries parses the section table out of a GIANTBIN buffer
// (independent re-implementation, so a layout bug can't hide from the
// tests that rely on it).
func sectionBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	nsec := int(binary.LittleEndian.Uint32(data[56:60]))
	bounds := []int{binHeaderSize, binHeaderSize + binTableEntry*nsec}
	for i := 0; i < nsec; i++ {
		ent := data[binHeaderSize+binTableEntry*i:]
		off := int(binary.LittleEndian.Uint64(ent[8:]))
		length := int(binary.LittleEndian.Uint64(ent[16:]))
		bounds = append(bounds, off, off+length)
	}
	return bounds
}

// TestBinaryTruncationAtEverySectionBoundary: cutting the file at the
// header boundary, the table boundary, and the start and end of every
// section must yield a typed error (never a panic, never a snapshot).
func TestBinaryTruncationAtEverySectionBoundary(t *testing.T) {
	data := encodeSnapshotBinary(t, richOntology().Snapshot())
	cuts := sectionBoundaries(t, data)
	// A few unaligned interior cuts too.
	cuts = append(cuts, 1, 7, binHeaderSize-1, len(data)-1)
	for _, cut := range cuts {
		if cut >= len(data) {
			continue
		}
		_, err := DecodeSnapshotBinary(data[:cut])
		if err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(data))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
	// Truncation inside the fixed header specifically reports ErrTruncated
	// (magic intact, bytes missing).
	if _, err := DecodeSnapshotBinary(data[:binHeaderSize-4]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("header truncation: %v, want ErrTruncated", err)
	}
}

// TestBinaryBitFlipChecksum: flipping one bit inside any section payload
// is caught by that section's CRC32C; flipping a header bit is caught by
// the header CRC.
func TestBinaryBitFlipChecksum(t *testing.T) {
	orig := encodeSnapshotBinary(t, richOntology().Snapshot())
	nsec := int(binary.LittleEndian.Uint32(orig[56:60]))
	for i := 0; i < nsec; i++ {
		ent := orig[binHeaderSize+binTableEntry*i:]
		off := int(binary.LittleEndian.Uint64(ent[8:]))
		length := int(binary.LittleEndian.Uint64(ent[16:]))
		if length == 0 {
			continue
		}
		data := append([]byte(nil), orig...)
		data[off+length/2] ^= 0x10
		if _, err := DecodeSnapshotBinary(data); !errors.Is(err, ErrChecksum) {
			t.Fatalf("bit flip in section %d: %v, want ErrChecksum", i, err)
		}
	}
	data := append([]byte(nil), orig...)
	data[40] ^= 0x01 // node count
	if _, err := DecodeSnapshotBinary(data); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit flip in header: %v, want ErrChecksum", err)
	}
}

// TestBinaryBadMagicAndFutureVersion covers the remaining typed rejects.
func TestBinaryBadMagicAndFutureVersion(t *testing.T) {
	if _, err := DecodeSnapshotBinary([]byte("{\"nodes\":[]}")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("JSON bytes: %v, want ErrBadMagic", err)
	}
	if _, err := DecodeSnapshotBinary([]byte("GIA")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("short non-magic bytes: %v, want ErrBadMagic", err)
	}

	data := encodeSnapshotBinary(t, richOntology().Snapshot())
	binary.LittleEndian.PutUint32(data[8:], BinaryVersion+1)
	// Re-stamp the header CRC so the version check (not the checksum) is
	// what fires — a future writer would have written a valid CRC.
	binary.LittleEndian.PutUint32(data[60:], crc32.Checksum(data[:60], crcTable))
	if _, err := DecodeSnapshotBinary(data); !errors.Is(err, ErrFormatVersion) {
		t.Fatalf("future version: %v, want ErrFormatVersion", err)
	}
}

// TestBinaryCrossFormatLoaders: each loader rejects the other kind's
// binary artifact, and the derive fallback works for binary unions.
func TestBinaryCrossFormatLoaders(t *testing.T) {
	dir := t.TempDir()
	union := projectionOntology(t)
	unionPath := filepath.Join(dir, "union.bin")
	if err := union.SaveBinaryFile(unionPath); err != nil {
		t.Fatal(err)
	}
	ss, err := ShardSnapshot(union, 2)
	if err != nil {
		t.Fatal(err)
	}
	shardPath := filepath.Join(dir, "shard.bin")
	if err := ss.Projection(0).SaveBinaryFile(shardPath); err != nil {
		t.Fatal(err)
	}

	// Binary shard into the union loader: rejected with a message naming
	// the shard identity.
	if _, err := LoadSnapshotFile(shardPath); err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("LoadSnapshotFile(shard.bin): %v, want shard-projection reject", err)
	}

	// Binary union into the shard loader: ErrNotShardFile, so
	// LoadShardInput derives the projection instead.
	if _, err := LoadShardFile(unionPath); !errors.Is(err, ErrNotShardFile) {
		t.Fatalf("LoadShardFile(union.bin): %v, want ErrNotShardFile", err)
	}
	p, err := LoadShardInput(unionPath, 1, 2)
	if err != nil {
		t.Fatalf("LoadShardInput(union.bin): %v", err)
	}
	want := ss.Projection(1)
	if p.Shard != 1 || p.NumShards != 2 || p.HomeCount != want.HomeCount {
		t.Fatalf("derived projection identity: %+v", p)
	}
	if !reflect.DeepEqual(p.UnionIDs, want.UnionIDs) {
		t.Fatal("derived projection union IDs differ")
	}

	// Binary shard with the wrong requested identity: loud mismatch.
	if _, err := LoadShardInput(shardPath, 1, 2); err == nil || !strings.Contains(err.Error(), "want 1/2") {
		t.Fatalf("LoadShardInput(shard.bin, 1/2): %v, want identity mismatch", err)
	}
	// Matching identity boots directly.
	if p, err := LoadShardInput(shardPath, 0, 2); err != nil || p.Shard != 0 {
		t.Fatalf("LoadShardInput(shard.bin, 0/2): %v", err)
	}
}

// TestAtomicSave: saves replace the destination atomically and leave no
// temp droppings, for every Save* entry point.
func TestAtomicSave(t *testing.T) {
	dir := t.TempDir()
	snap := richOntology().Snapshot()
	path := filepath.Join(dir, "ao.json")
	if err := os.WriteFile(path, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := snap.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := snap.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("SaveFile did not replace the stale file")
	}
	if err := snap.SaveBinaryFile(filepath.Join(dir, "ao.bin")); err != nil {
		t.Fatal(err)
	}
	ss, err := ShardSnapshot(projectionOntology(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Projection(0).SaveBinaryFile(filepath.Join(dir, "s.bin")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode().Perm() != 0o644 {
			t.Fatalf("%s has mode %v, want 0644", e.Name(), info.Mode().Perm())
		}
	}
	// A failing save (unwritable destination directory) must not create
	// the destination.
	bad := filepath.Join(dir, "missing-dir", "ao.json")
	if err := snap.SaveFile(bad); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
	if _, err := os.Stat(bad); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed save left something at %s", bad)
	}
}

// TestSnapshotBinaryGenRoundTrip: EncodeSnapshotBinary stamps the
// generation into the header and DecodeSnapshotBinaryWithGen reports it
// back with the snapshot intact; an unstamped artifact reports 0, and a
// shard artifact is refused.
func TestSnapshotBinaryGenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	donor := New()
	donor.AddNode(Concept, "alpha")
	donor.AddNode(Concept, "beta")
	donorSnap := donor.Snapshot()
	var enc bytes.Buffer
	if err := EncodeSnapshotBinary(&enc, donorSnap, 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "gen.bin")
	if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := ReadBinaryHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Generation != 2 {
		t.Fatalf("stamped generation = %d, want 2", h.Generation)
	}

	snap, gen, err := DecodeSnapshotBinaryWithGen(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("decoded generation = %d, want 2", gen)
	}
	var a, b bytes.Buffer
	if err := donorSnap.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("decoded snapshot differs from donor")
	}

	// An unstamped artifact carries generation 0.
	var plain bytes.Buffer
	if err := donorSnap.WriteBinary(&plain); err != nil {
		t.Fatal(err)
	}
	if _, gen, err := DecodeSnapshotBinaryWithGen(plain.Bytes()); err != nil || gen != 0 {
		t.Fatalf("unstamped decode: gen %d err %v, want 0 and nil", gen, err)
	}
	// A shard artifact is not a snapshot.
	ss, err := ShardSnapshot(projectionOntology(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	var shard bytes.Buffer
	if err := ss.Projection(0).WriteBinary(&shard); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSnapshotBinaryWithGen(shard.Bytes()); err == nil {
		t.Fatal("decoding a shard artifact as a snapshot succeeded")
	}
}

// TestBinaryCorruptStructure: artifacts whose checksums pass but whose
// contents lie (CRC recomputed over corrupted columns) are still rejected
// by structural validation, with ErrCorrupt.
func TestBinaryCorruptStructure(t *testing.T) {
	corrupt := func(t *testing.T, mutate func(data []byte, off, length int), secID uint32) error {
		t.Helper()
		data := encodeSnapshotBinary(t, richOntology().Snapshot())
		nsec := int(binary.LittleEndian.Uint32(data[56:60]))
		for i := 0; i < nsec; i++ {
			ent := data[binHeaderSize+binTableEntry*i:]
			if binary.LittleEndian.Uint32(ent[0:]) != secID {
				continue
			}
			off := int(binary.LittleEndian.Uint64(ent[8:]))
			length := int(binary.LittleEndian.Uint64(ent[16:]))
			mutate(data, off, length)
			// Re-stamp the section CRC so only structural validation can
			// catch the lie.
			binary.LittleEndian.PutUint32(ent[24:], crc32.Checksum(data[off:off+length], crcTable))
			_, err := DecodeSnapshotBinary(data)
			return err
		}
		t.Fatalf("section %d not found", secID)
		return nil
	}

	// Edge endpoint out of range.
	err := corrupt(t, func(data []byte, off, _ int) {
		binary.LittleEndian.PutUint32(data[off:], 1<<20)
	}, secEdgeSrc)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wild edge endpoint: %v, want ErrCorrupt", err)
	}
	// Decreasing phrase offsets.
	err = corrupt(t, func(data []byte, off, _ int) {
		binary.LittleEndian.PutUint32(data[off+4:], 1<<30)
	}, secPhraseOffs)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad phrase offsets: %v, want ErrCorrupt", err)
	}
	// CSR grouping an edge under the wrong vertex.
	err = corrupt(t, func(data []byte, off, length int) {
		a := binary.LittleEndian.Uint32(data[off:])
		binary.LittleEndian.PutUint32(data[off:], binary.LittleEndian.Uint32(data[off+length-4:]))
		binary.LittleEndian.PutUint32(data[off+length-4:], a)
	}, secCSROutIdx)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("shuffled CSR: %v, want ErrCorrupt", err)
	}
}
