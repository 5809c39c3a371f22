package wal

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Shard:      1,
		Shards:     2,
		WALGen:     7,
		ServingGen: 9,
		Snapshot:   []byte("GIANTBIN-pretend-snapshot-bytes"),
		State:      []byte(`{"docs":[],"records":[]}`),
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ck := sampleCheckpoint()
	if err := PublishCheckpoint(dir, ck); err != nil {
		t.Fatalf("PublishCheckpoint: %v", err)
	}
	path := CheckpointPath(dir, 1, 2)
	got, err := ReadCheckpoint(path, 1, 2)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if got.WALGen != 7 || got.ServingGen != 9 {
		t.Fatalf("generations = %d/%d, want 7/9", got.WALGen, got.ServingGen)
	}
	if !bytes.Equal(got.Snapshot, ck.Snapshot) || !bytes.Equal(got.State, ck.State) {
		t.Fatal("sections did not round-trip byte-identical")
	}
	meta, err := ReadCheckpointMeta(path)
	if err != nil {
		t.Fatalf("ReadCheckpointMeta: %v", err)
	}
	if meta.WALGen != 7 || meta.ServingGen != 9 || meta.Shard != 1 || meta.Shards != 2 {
		t.Fatalf("meta = %+v, want shard 1/2 gens 7/9", meta)
	}
}

func TestCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	first := sampleCheckpoint()
	if err := PublishCheckpoint(dir, first); err != nil {
		t.Fatalf("publish first: %v", err)
	}
	second := sampleCheckpoint()
	second.WALGen, second.ServingGen = 12, 14
	if err := PublishCheckpoint(dir, second); err != nil {
		t.Fatalf("publish second: %v", err)
	}
	cur, err := ReadCheckpoint(CheckpointPath(dir, 1, 2), 1, 2)
	if err != nil {
		t.Fatalf("read primary: %v", err)
	}
	if cur.WALGen != 12 {
		t.Fatalf("primary covers generation %d, want 12", cur.WALGen)
	}
	prev, err := ReadCheckpoint(PrevCheckpointPath(dir, 1, 2), 1, 2)
	if err != nil {
		t.Fatalf("read rotated previous: %v", err)
	}
	if prev.WALGen != 7 {
		t.Fatalf("previous covers generation %d, want 7", prev.WALGen)
	}
}

func TestCheckpointShardMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := PublishCheckpoint(dir, sampleCheckpoint()); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if _, err := ReadCheckpoint(CheckpointPath(dir, 1, 2), 0, 2); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("wrong shard: err = %v, want ErrShardMismatch", err)
	}
}

// TestCheckpointBitFlipMatrix mirrors the WAL corruption matrix: a bit
// flip in every region of the artifact (magic, version, header fields,
// snapshot payload, snapshot CRC, state payload, state CRC) must be
// rejected with a typed error — never silently accepted.
func TestCheckpointBitFlipMatrix(t *testing.T) {
	dir := t.TempDir()
	ck := sampleCheckpoint()
	if err := PublishCheckpoint(dir, ck); err != nil {
		t.Fatalf("publish: %v", err)
	}
	clean, err := os.ReadFile(CheckpointPath(dir, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	snapEnd := ckptHeaderSize + len(ck.Snapshot)
	regions := []struct {
		name string
		off  int64
	}{
		{"magic", 0},
		{"version", 8},
		{"shard", 12},
		{"wal-gen", 20},
		{"serving-gen", 28},
		{"snap-len", 36},
		{"state-len", 44},
		{"header-crc", 52},
		{"snapshot-payload", ckptHeaderSize + 3},
		{"snapshot-crc", int64(snapEnd)},
		{"state-payload", int64(snapEnd) + ckptTrailSize + 2},
		{"state-crc", int64(snapEnd) + ckptTrailSize + int64(len(ck.State))},
	}
	for _, rg := range regions {
		p := filepath.Join(t.TempDir(), "flipped.ckpt")
		damaged := append([]byte(nil), clean...)
		damaged[rg.off] ^= 0x10
		if err := os.WriteFile(p, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(p, 1, 2); err == nil {
			t.Fatalf("bit flip in %s (offset %d) was accepted", rg.name, rg.off)
		}
	}
}

// TestCheckpointTruncationMatrix cuts the artifact at every boundary
// and a few interior bytes; every cut must be rejected.
func TestCheckpointTruncationMatrix(t *testing.T) {
	dir := t.TempDir()
	ck := sampleCheckpoint()
	if err := PublishCheckpoint(dir, ck); err != nil {
		t.Fatalf("publish: %v", err)
	}
	clean, err := os.ReadFile(CheckpointPath(dir, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 7, ckptHeaderSize - 1, ckptHeaderSize,
		ckptHeaderSize + len(ck.Snapshot)/2,
		len(clean) - ckptTrailSize - 1, len(clean) - 1}
	for _, cut := range cuts {
		p := filepath.Join(t.TempDir(), "cut.ckpt")
		if err := os.WriteFile(p, clean[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(p, 1, 2); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("cut at %d bytes: err = %v, want a typed corruption error", cut, err)
		}
	}
	// Trailing garbage (a torn copy landing long) is rejected too.
	p := filepath.Join(t.TempDir(), "long.ckpt")
	if err := os.WriteFile(p, append(append([]byte(nil), clean...), 0xEE), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(p, 1, 2); !errors.Is(err, ErrTruncated) {
		t.Fatalf("over-long artifact: err = %v, want ErrTruncated", err)
	}
}

// TestCheckpointMetaDoesNotReadSections asserts the router's cheap
// header probe succeeds even when a section is damaged — it must only
// promise header integrity.
func TestCheckpointMetaDoesNotReadSections(t *testing.T) {
	dir := t.TempDir()
	if err := PublishCheckpoint(dir, sampleCheckpoint()); err != nil {
		t.Fatalf("publish: %v", err)
	}
	path := CheckpointPath(dir, 1, 2)
	flipBit(t, path, ckptHeaderSize+1) // damage the snapshot section
	if _, err := ReadCheckpointMeta(path); err != nil {
		t.Fatalf("ReadCheckpointMeta with damaged section: %v", err)
	}
	if _, err := ReadCheckpoint(path, 1, 2); !errors.Is(err, ErrChecksum) {
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
		ck := sampleCheckpoint()
		ck.WALGen, ck.ServingGen = walGen, walGen+2
		if err := PublishCheckpoint(dir, ck); err != nil {
			t.Fatalf("publish generation %d: %v", walGen, err)
		}
	}
	slots := func() (primary, prev uint64) {
		t.Helper()
		cur, err := ReadCheckpoint(CheckpointPath(dir, 1, 2), 1, 2)
		if err != nil {
			t.Fatalf("read primary: %v", err)
		}
		old, err := ReadCheckpoint(PrevCheckpointPath(dir, 1, 2), 1, 2)
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

// TestPublishCheckpointConcurrentPublishers is two replicas of one shard
// checkpointing into the same directory at different paces — one rolls
// generations 2, 4, 6, the slower one 2, 4 — while a reader polls the
// way the router's prober and a restarting replica do. Once the first
// artifact is out the primary path must always be there, the position
// it covers must never move backwards, and whatever sits in ".prev"
// must fully validate.
func TestPublishCheckpointConcurrentPublishers(t *testing.T) {
	payload := bytes.Repeat([]byte("snapshot"), 8<<10) // wide enough write windows to interleave
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		primary, prev := CheckpointPath(dir, 1, 2), PrevCheckpointPath(dir, 1, 2)
		first := make(chan struct{})
		var firstOnce sync.Once
		var publishers sync.WaitGroup
		for _, gens := range [][]uint64{{2, 4, 6}, {2, 4}} {
			publishers.Add(1)
			go func(gens []uint64) {
				defer publishers.Done()
				for _, g := range gens {
					err := PublishCheckpoint(dir, &Checkpoint{Shard: 1, Shards: 2, WALGen: g, ServingGen: g + 1, Snapshot: payload, State: []byte("state")})
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
			if _, err := ReadCheckpoint(prev, 1, 2); err != nil && !errors.Is(err, fs.ErrNotExist) {
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
