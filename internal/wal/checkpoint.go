// Checkpoint sidecar: the fleet's one artifact that pins the full world at
// a log position, so a restarting replica of any shard hydrates the
// checkpoint and tails only the log suffix instead of re-mining the whole
// history. Checkpoints are what make TruncateBelow safe — the router never
// drops records that are not covered by the published checkpoint. Any
// replica may write it: only the generations differ per shard, so the
// header carries one per shard, and a replica of shard i resumes at entry
// i. A shard's generation is the log position of the last applied batch
// that changed it, so no entry exceeds the covered position.
//
// Layout (all integers little-endian):
//
//	header (44 + 8k bytes)
//	  0       magic "GIANTCKP"     (8 bytes)
//	  8       format version       (uint32, currently 3)
//	  12      shard count k        (uint32, 1..maxCheckpointShards)
//	  16      wal generation       (uint64: log position this covers)
//	  24      snapshot length      (uint64)
//	  32      state length         (uint64)
//	  40      shard generations    (k × uint64: shard i's since, the log
//	                                position that last changed it, at
//	                                most the wal generation)
//	  40+8k   header CRC32C        (over bytes [0,40+8k))
//	snapshot bytes (GIANTBIN union snapshot) + CRC32C (uint32)
//	state bytes (opaque host blob)           + CRC32C (uint32)
//
// The snapshot's GIANTBIN header is stamped with the wal generation, the
// one generation every shard's replicas agree on.
//
// Publication keeps the atomic-rename discipline of the log itself: the
// new artifact is written to a temp file and fsynced, the current primary
// (if any) is hard-linked into its ".prev" slot, and the temp file is
// renamed over the primary. The primary path therefore never disappears
// once it exists, a crash at any point leaves at least one fully intact
// artifact, and readers walk the ladder newest-first: primary checkpoint,
// previous checkpoint, full log replay. Publishers serialize on an
// advisory file lock and never replace a primary with one that covers
// less of the log.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// CheckpointMagic is the 8-byte tag every checkpoint artifact starts
// with.
const CheckpointMagic = "GIANTCKP"

// CheckpointVersion is the current checkpoint format version. Version 3
// keeps version 2's layout, but its vector holds log positions; a version
// 2 vector held per-replica counters and is refused.
const CheckpointVersion = 3

const (
	// ckptFixedSize is the header prefix before the generation vector.
	ckptFixedSize = 40
	ckptTrailSize = 4
	// maxCheckpointShards bounds the generation vector, so a corrupt
	// shard count can never size an allocation.
	maxCheckpointShards = 1 << 12
)

// CheckpointMeta is the header view of an artifact: the log position it
// covers and every shard's generation there. It is also where a follower
// resumes; the zero value is a fresh boot at position 0.
type CheckpointMeta struct {
	WALGen      uint64   // last log generation whose effects are included
	ServingGens []uint64 // ServingGens[i]: the log position that last changed shard i, ≤ WALGen
}

// Checkpoint is one published artifact: the union snapshot in GIANTBIN
// encoding plus an opaque host-state blob, stamped with the log position
// it covers and the shard generations replicas resume at.
type Checkpoint struct {
	CheckpointMeta
	Snapshot []byte // GIANTBIN-encoded union snapshot
	State    []byte // opaque host state (mining context, click log tail)
}

// CheckpointPath returns the primary checkpoint path in a log directory,
// beside the fleet log.
func CheckpointPath(dir string) string { return filepath.Join(dir, "fleet.ckpt") }

// PrevCheckpointPath returns the rotation slot the previous primary is
// moved to when a new checkpoint is published.
func PrevCheckpointPath(dir string) string { return CheckpointPath(dir) + ".prev" }

func ckptHeaderSize(k int) int { return ckptFixedSize + 8*k + ckptTrailSize }

// encodeCheckpoint renders the full artifact bytes.
func encodeCheckpoint(ck *Checkpoint) []byte {
	k := len(ck.ServingGens)
	hdr := ckptHeaderSize(k)
	buf := make([]byte, hdr+len(ck.Snapshot)+ckptTrailSize+len(ck.State)+ckptTrailSize)
	copy(buf[0:8], CheckpointMagic)
	binary.LittleEndian.PutUint32(buf[8:], CheckpointVersion)
	binary.LittleEndian.PutUint32(buf[12:], uint32(k))
	binary.LittleEndian.PutUint64(buf[16:], ck.WALGen)
	binary.LittleEndian.PutUint64(buf[24:], uint64(len(ck.Snapshot)))
	binary.LittleEndian.PutUint64(buf[32:], uint64(len(ck.State)))
	for i, g := range ck.ServingGens {
		binary.LittleEndian.PutUint64(buf[ckptFixedSize+8*i:], g)
	}
	binary.LittleEndian.PutUint32(buf[hdr-ckptTrailSize:], crc32.Checksum(buf[:hdr-ckptTrailSize], crcTable))
	off := hdr
	copy(buf[off:], ck.Snapshot)
	off += len(ck.Snapshot)
	binary.LittleEndian.PutUint32(buf[off:], crc32.Checksum(ck.Snapshot, crcTable))
	off += ckptTrailSize
	copy(buf[off:], ck.State)
	off += len(ck.State)
	binary.LittleEndian.PutUint32(buf[off:], crc32.Checksum(ck.State, crcTable))
	return buf
}

// PublishCheckpoint makes ck the primary checkpoint in dir and moves the
// primary it replaces to the ".prev" slot — unless the existing primary
// already covers ck.WALGen or more, in which case neither slot is touched:
// the router may have truncated the log against that primary, so the
// covered position must never move backwards.
//
// Every replica of every shard publishes into the same directory at its
// own pace. They serialize here on an advisory lock (released by the
// kernel if the holder dies) held across the coverage check, the rotation
// and the rename; without it a slow replica's older artifact could pass
// the check and then overwrite a newer one, and two such rotations would
// push the only artifact covering the truncated log out of both slots.
func PublishCheckpoint(dir string, ck *Checkpoint) error {
	if k := len(ck.ServingGens); k < 1 || k > maxCheckpointShards {
		return fmt.Errorf("wal: checkpoint for %d shards (want 1..%d)", k, maxCheckpointShards)
	}
	primary := CheckpointPath(dir)
	unlock, err := lockFile(primary + ".lock")
	if err != nil {
		return fmt.Errorf("wal: lock checkpoint publication: %w", err)
	}
	defer unlock()

	cur, err := ReadCheckpointMeta(primary)
	if err == nil && cur.WALGen >= ck.WALGen {
		return nil
	}
	havePrimary := !errors.Is(err, fs.ErrNotExist)

	tmp, err := os.CreateTemp(dir, "ckpt.tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if _, err := tmp.Write(encodeCheckpoint(ck)); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if havePrimary {
		// A second name for the outgoing primary, renamed over ".prev":
		// the primary path itself stays in place until the rename below
		// replaces it in one step.
		prev := PrevCheckpointPath(dir)
		link := prev + ".tmp"
		if err := os.Remove(link); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		if err := os.Link(primary, link); err != nil {
			return err
		}
		if err := os.Rename(link, prev); err != nil {
			os.Remove(link)
			return err
		}
	}
	if err := os.Rename(tmpName, primary); err != nil {
		return err
	}
	committed = true
	return nil
}

// readCheckpointHeader validates the header at the start of r and
// returns its fields plus the section lengths and the header size. The
// shard count is bounded before the generation vector is read, so a
// corrupt count allocates nothing, and a vector entry past the covered
// position is corrupt: no shard changes after the position it is read at.
func readCheckpointHeader(r io.ReaderAt) (meta CheckpointMeta, snapLen, stateLen uint64, hdrLen int, err error) {
	var fixed [ckptFixedSize]byte
	if _, err := io.ReadFull(io.NewSectionReader(r, 0, ckptFixedSize), fixed[:]); err != nil {
		return meta, 0, 0, 0, fmt.Errorf("%w: checkpoint shorter than its header", ErrTruncated)
	}
	if string(fixed[0:8]) != CheckpointMagic {
		return meta, 0, 0, 0, fmt.Errorf("%w: not a GIANTCKP checkpoint", ErrBadMagic)
	}
	if v := binary.LittleEndian.Uint32(fixed[8:]); v != CheckpointVersion {
		return meta, 0, 0, 0, fmt.Errorf("%w: checkpoint version %d", ErrFormatVersion, v)
	}
	k := binary.LittleEndian.Uint32(fixed[12:])
	if k < 1 || k > maxCheckpointShards {
		return meta, 0, 0, 0, fmt.Errorf("%w: checkpoint claims %d shards (at most %d)", ErrCorrupt, k, maxCheckpointShards)
	}
	hdrLen = ckptHeaderSize(int(k))
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(io.NewSectionReader(r, 0, int64(hdrLen)), hdr); err != nil {
		return meta, 0, 0, 0, fmt.Errorf("%w: checkpoint shorter than its header", ErrTruncated)
	}
	crcAt := hdrLen - ckptTrailSize
	if sum := binary.LittleEndian.Uint32(hdr[crcAt:]); sum != crc32.Checksum(hdr[:crcAt], crcTable) {
		return meta, 0, 0, 0, fmt.Errorf("%w: checkpoint header", ErrChecksum)
	}
	meta.WALGen = binary.LittleEndian.Uint64(hdr[16:])
	snapLen = binary.LittleEndian.Uint64(hdr[24:])
	stateLen = binary.LittleEndian.Uint64(hdr[32:])
	if snapLen > MaxPayload || stateLen > MaxPayload {
		return meta, 0, 0, 0, fmt.Errorf("%w: checkpoint claims %d-byte snapshot, %d-byte state", ErrCorrupt, snapLen, stateLen)
	}
	meta.ServingGens = make([]uint64, k)
	for i := range meta.ServingGens {
		meta.ServingGens[i] = binary.LittleEndian.Uint64(hdr[ckptFixedSize+8*i:])
		if meta.ServingGens[i] > meta.WALGen {
			return meta, 0, 0, 0, fmt.Errorf("%w: checkpoint puts shard %d at log generation %d, past the %d it covers", ErrCorrupt, i, meta.ServingGens[i], meta.WALGen)
		}
	}
	return meta, snapLen, stateLen, hdrLen, nil
}

// ReadCheckpoint loads and fully validates the checkpoint at path:
// header CRC, section CRCs, exact length, and the shard count of the
// fleet reading it. Every corruption mode maps onto the same typed errors
// as the log itself so callers can ladder with errors.Is.
func ReadCheckpoint(path string, shards int) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	meta, snapLen, stateLen, hdrLen, err := readCheckpointHeader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if len(meta.ServingGens) != shards {
		return nil, fmt.Errorf("%w: checkpoint covers %d shards, want %d", ErrShardMismatch, len(meta.ServingGens), shards)
	}
	want := hdrLen + int(snapLen) + ckptTrailSize + int(stateLen) + ckptTrailSize
	if len(data) != want {
		return nil, fmt.Errorf("%w: checkpoint is %d bytes, header promises %d", ErrTruncated, len(data), want)
	}
	off := hdrLen
	snap := data[off : off+int(snapLen)]
	off += int(snapLen)
	if sum := binary.LittleEndian.Uint32(data[off:]); sum != crc32.Checksum(snap, crcTable) {
		return nil, fmt.Errorf("%w: checkpoint snapshot section", ErrChecksum)
	}
	off += ckptTrailSize
	state := data[off : off+int(stateLen)]
	off += int(stateLen)
	if sum := binary.LittleEndian.Uint32(data[off:]); sum != crc32.Checksum(state, crcTable) {
		return nil, fmt.Errorf("%w: checkpoint state section", ErrChecksum)
	}
	return &Checkpoint{CheckpointMeta: meta, Snapshot: snap, State: state}, nil
}

// ReadCheckpointMeta reads and header-CRC-validates only the header — the
// cheap probe the router uses to learn what log position the published
// checkpoint covers before truncating below it. The section payloads are
// NOT verified; use ReadCheckpoint before trusting the contents.
func ReadCheckpointMeta(path string) (CheckpointMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return CheckpointMeta{}, err
	}
	defer f.Close()
	meta, _, _, _, err := readCheckpointHeader(f)
	return meta, err
}
