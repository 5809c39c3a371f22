package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// sampleCheckpoint is an artifact for a k-shard fleet with distinct
// generations per shard, each at or below the covered position.
func sampleCheckpoint(k int) *Checkpoint {
	gens := make([]uint64, k)
	for i := range gens {
		gens[i] = uint64(7 - i)
	}
	return &Checkpoint{
		CheckpointMeta: CheckpointMeta{WALGen: 7, ServingGens: gens},
		Snapshot:       []byte("GIANTBIN-pretend-snapshot-bytes"),
		State:          []byte(`{"docs":[],"records":[]}`),
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ck := sampleCheckpoint(2)
	if err := PublishCheckpoint(dir, ck); err != nil {
		t.Fatalf("PublishCheckpoint: %v", err)
	}
	path := CheckpointPath(dir)
	got, err := ReadCheckpoint(path, 2)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if got.WALGen != 7 || !reflect.DeepEqual(got.ServingGens, []uint64{7, 6}) {
		t.Fatalf("generations = %d/%v, want 7/[7 6]", got.WALGen, got.ServingGens)
	}
	if !bytes.Equal(got.Snapshot, ck.Snapshot) || !bytes.Equal(got.State, ck.State) {
		t.Fatal("sections did not round-trip byte-identical")
	}
	meta, err := ReadCheckpointMeta(path)
	if err != nil {
		t.Fatalf("ReadCheckpointMeta: %v", err)
	}
	if !reflect.DeepEqual(meta, got.CheckpointMeta) {
		t.Fatalf("meta = %+v, want %+v", meta, got.CheckpointMeta)
	}
}

func TestCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	first := sampleCheckpoint(2)
	if err := PublishCheckpoint(dir, first); err != nil {
		t.Fatalf("publish first: %v", err)
	}
	second := sampleCheckpoint(2)
	second.WALGen, second.ServingGens = 12, []uint64{12, 9}
	if err := PublishCheckpoint(dir, second); err != nil {
		t.Fatalf("publish second: %v", err)
	}
	cur, err := ReadCheckpoint(CheckpointPath(dir), 2)
	if err != nil {
		t.Fatalf("read primary: %v", err)
	}
	if cur.WALGen != 12 {
		t.Fatalf("primary covers generation %d, want 12", cur.WALGen)
	}
	prev, err := ReadCheckpoint(PrevCheckpointPath(dir), 2)
	if err != nil {
		t.Fatalf("read rotated previous: %v", err)
	}
	if prev.WALGen != 7 {
		t.Fatalf("previous covers generation %d, want 7", prev.WALGen)
	}
}

// TestCheckpointShardMismatch: an artifact written for one shard count is
// refused by a fleet of another — its generation vector cannot say where
// this fleet's shards resume.
func TestCheckpointShardMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := PublishCheckpoint(dir, sampleCheckpoint(2)); err != nil {
		t.Fatalf("publish: %v", err)
	}
	for _, k := range []int{1, 3} {
		if _, err := ReadCheckpoint(CheckpointPath(dir), k); !errors.Is(err, ErrShardMismatch) {
			t.Fatalf("read as a %d-shard fleet: err = %v, want ErrShardMismatch", k, err)
		}
	}
	if err := PublishCheckpoint(dir, sampleCheckpoint(0)); err == nil {
		t.Fatal("published a checkpoint with an empty generation vector")
	}
}

// TestCheckpointShardCountBound: a shard count past the bound is
// ErrCorrupt before anything is sized from it.
func TestCheckpointShardCountBound(t *testing.T) {
	const k = 1 << 20 // an 8 MiB vector, were it ever allocated
	var fixed [ckptFixedSize]byte
	copy(fixed[:], CheckpointMagic)
	binary.LittleEndian.PutUint32(fixed[8:], CheckpointVersion)
	binary.LittleEndian.PutUint32(fixed[12:], k)
	path := filepath.Join(t.TempDir(), "huge.ckpt")
	if err := os.WriteFile(path, fixed[:], 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, metaErr := ReadCheckpointMeta(path)
	_, readErr := ReadCheckpoint(path, 1)
	runtime.ReadMemStats(&after)
	for _, err := range []error{metaErr, readErr} {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("shard count %d: err = %v, want ErrCorrupt", k, err)
		}
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("rejecting shard count %d allocated %d bytes", k, grew)
	}
}

// TestCheckpointBitFlipMatrix mirrors the WAL corruption matrix: a bit
// flip in every region of the artifact (magic, version, header fields,
// the first and last shard generation, snapshot payload, snapshot CRC,
// state payload, state CRC) must be rejected with a typed error — never
// silently accepted. So must a shard generation past the covered
// position under a valid header CRC.
func TestCheckpointBitFlipMatrix(t *testing.T) {
	for _, k := range []int{1, 3} {
		dir := t.TempDir()
		ck := sampleCheckpoint(k)
		if err := PublishCheckpoint(dir, ck); err != nil {
			t.Fatalf("k=%d: publish: %v", k, err)
		}
		clean, err := os.ReadFile(CheckpointPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		hdr := ckptHeaderSize(k)
		snapEnd := hdr + len(ck.Snapshot)
		regions := []struct {
			name string
			off  int
		}{
			{"magic", 0},
			{"version", 8},
			{"shard-count", 12},
			{"wal-gen", 16},
			{"snap-len", 24},
			{"state-len", 32},
			{"first-shard-gen", ckptFixedSize},
			{"last-shard-gen", ckptFixedSize + 8*(k-1)},
			{"header-crc", hdr - ckptTrailSize},
			{"snapshot-payload", hdr + 3},
			{"snapshot-crc", snapEnd},
			{"state-payload", snapEnd + ckptTrailSize + 2},
			{"state-crc", snapEnd + ckptTrailSize + len(ck.State)},
		}
		for _, rg := range regions {
			p := filepath.Join(t.TempDir(), "flipped.ckpt")
			damaged := append([]byte(nil), clean...)
			damaged[rg.off] ^= 0x10
			if err := os.WriteFile(p, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadCheckpoint(p, k); err == nil {
				t.Fatalf("k=%d: bit flip in %s (offset %d) was accepted", k, rg.name, rg.off)
			}
		}
		past := append([]byte(nil), clean...)
		binary.LittleEndian.PutUint64(past[ckptFixedSize+8*(k-1):], ck.WALGen+1)
		binary.LittleEndian.PutUint32(past[hdr-ckptTrailSize:], crc32.Checksum(past[:hdr-ckptTrailSize], crcTable))
		p := filepath.Join(t.TempDir(), "past.ckpt")
		if err := os.WriteFile(p, past, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(p, k); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("k=%d: a shard generation past the covered position: err = %v, want ErrCorrupt", k, err)
		}
	}
}

// TestCheckpointTruncationMatrix cuts the artifact at every boundary
// and a few interior bytes; every cut must be rejected.
func TestCheckpointTruncationMatrix(t *testing.T) {
	for _, k := range []int{1, 3} {
		dir := t.TempDir()
		ck := sampleCheckpoint(k)
		if err := PublishCheckpoint(dir, ck); err != nil {
			t.Fatalf("k=%d: publish: %v", k, err)
		}
		clean, err := os.ReadFile(CheckpointPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		hdr := ckptHeaderSize(k)
		cuts := []int{0, 7, ckptFixedSize - 1, ckptFixedSize, ckptFixedSize + 8*k, hdr - 1, hdr,
			hdr + len(ck.Snapshot)/2,
			len(clean) - ckptTrailSize - 1, len(clean) - 1}
		for _, cut := range cuts {
			p := filepath.Join(t.TempDir(), "cut.ckpt")
			if err := os.WriteFile(p, clean[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadCheckpoint(p, k); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadMagic) {
				t.Fatalf("k=%d: cut at %d bytes: err = %v, want a typed corruption error", k, cut, err)
			}
		}
		// Trailing garbage (a torn copy landing long) is rejected too.
		p := filepath.Join(t.TempDir(), "long.ckpt")
		if err := os.WriteFile(p, append(append([]byte(nil), clean...), 0xEE), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(p, k); !errors.Is(err, ErrTruncated) {
			t.Fatalf("k=%d: over-long artifact: err = %v, want ErrTruncated", k, err)
		}
	}
}

// TestCheckpointMetaDoesNotReadSections asserts the router's cheap
// header probe succeeds even when a section is damaged — it must only
// promise header integrity.
func TestCheckpointMetaDoesNotReadSections(t *testing.T) {
	dir := t.TempDir()
	if err := PublishCheckpoint(dir, sampleCheckpoint(2)); err != nil {
		t.Fatalf("publish: %v", err)
	}
	path := CheckpointPath(dir)
	flipBit(t, path, int64(ckptHeaderSize(2))+1) // damage the snapshot section
	if _, err := ReadCheckpointMeta(path); err != nil {
		t.Fatalf("ReadCheckpointMeta with damaged section: %v", err)
	}
	if _, err := ReadCheckpoint(path, 2); !errors.Is(err, ErrChecksum) {
		t.Fatalf("ReadCheckpoint with damaged section: err = %v, want ErrChecksum", err)
	}
}

// TestPublishCheckpointNeverRegresses pins the coverage rule: an
// artifact that covers less of the log than the current primary is
// dropped without touching either slot — the router may already have
// truncated the log against that primary.
func TestPublishCheckpointNeverRegresses(t *testing.T) {
	dir := t.TempDir()
	publish := func(walGen uint64) {
		t.Helper()
		ck := sampleCheckpoint(2)
		ck.WALGen, ck.ServingGens = walGen, []uint64{walGen, walGen - 1}
		if err := PublishCheckpoint(dir, ck); err != nil {
			t.Fatalf("publish generation %d: %v", walGen, err)
		}
	}
	slots := func() (primary, prev uint64) {
		t.Helper()
		cur, err := ReadCheckpoint(CheckpointPath(dir), 2)
		if err != nil {
			t.Fatalf("read primary: %v", err)
		}
		old, err := ReadCheckpoint(PrevCheckpointPath(dir), 2)
		if err != nil {
			t.Fatalf("read previous: %v", err)
		}
		return cur.WALGen, old.WALGen
	}
	publish(4)
	publish(6)
	for _, stale := range []uint64{4, 6, 2} {
		publish(stale)
		if primary, prev := slots(); primary != 6 || prev != 4 {
			t.Fatalf("after a stale publish of generation %d the slots cover %d/%d, want 6/4", stale, primary, prev)
		}
	}
	publish(8)
	if primary, prev := slots(); primary != 8 || prev != 6 {
		t.Fatalf("slots cover %d/%d after publishing 8, want 8/6", primary, prev)
	}
}

// TestPublishCheckpointConcurrentPublishers is two replicas — of
// different shards — checkpointing into the fleet's one directory at
// different paces — one rolls generations 2, 4, 6, the slower one 2, 4 —
// while a reader polls the way the router's prober and a restarting
// replica do. Once the first artifact is out the primary path must always
// be there, the position it covers must never move backwards, and
// whatever sits in ".prev" must fully validate.
func TestPublishCheckpointConcurrentPublishers(t *testing.T) {
	payload := bytes.Repeat([]byte("snapshot"), 8<<10) // wide enough write windows to interleave
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		primary, prev := CheckpointPath(dir), PrevCheckpointPath(dir)
		first := make(chan struct{})
		var firstOnce sync.Once
		var publishers sync.WaitGroup
		for _, gens := range [][]uint64{{2, 4, 6}, {2, 4}} {
			publishers.Add(1)
			go func(gens []uint64) {
				defer publishers.Done()
				for _, g := range gens {
					err := PublishCheckpoint(dir, &Checkpoint{
						CheckpointMeta: CheckpointMeta{WALGen: g, ServingGens: []uint64{g, g - 1}},
						Snapshot:       payload, State: []byte("state"),
					})
					if err != nil {
						t.Errorf("round %d: publish generation %d: %v", round, g, err)
					}
					firstOnce.Do(func() { close(first) })
				}
			}(gens)
		}
		done := make(chan struct{})
		go func() { publishers.Wait(); close(done) }()

		<-first
		var floor uint64
		for polling := true; polling; {
			select {
			case <-done:
				polling = false // one last look at the settled directory
			default:
			}
			meta, err := ReadCheckpointMeta(primary)
			if err != nil {
				t.Fatalf("round %d: primary unreadable after the first publish (covered %d so far): %v", round, floor, err)
			}
			if meta.WALGen < floor {
				t.Fatalf("round %d: primary went back from generation %d to %d", round, floor, meta.WALGen)
			}
			floor = meta.WALGen
			if _, err := ReadCheckpoint(prev, 2); err != nil && !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("round %d: previous slot does not validate: %v", round, err)
			}
		}
		if floor != 6 {
			t.Fatalf("round %d: primary settled at generation %d, want 6", round, floor)
		}
		if old, err := ReadCheckpointMeta(prev); err != nil || old.WALGen != 4 {
			t.Fatalf("round %d: previous slot settled at %+v (%v), want generation 4", round, old, err)
		}
	}
}
