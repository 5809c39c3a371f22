// Checkpoint sidecar: a per-shard-log artifact that pins a full shard
// world at a log position, so a restarting replica hydrates the
// checkpoint and tails only the log suffix instead of re-mining the
// whole history. Checkpoints are what make TruncateBelow safe — the
// router never drops records that are not covered by a published
// checkpoint.
//
// Layout (all integers little-endian):
//
//	header (56 bytes)
//	  0   magic "GIANTCKP"     (8 bytes)
//	  8   format version       (uint32, currently 1)
//	  12  shard index i        (int32)
//	  16  shard count k        (int32)
//	  20  wal generation       (uint64: log position this covers)
//	  28  serving generation   (uint64: the shard server's generation
//	                            at that position)
//	  36  snapshot length      (uint64)
//	  44  state length         (uint64)
//	  52  header CRC32C        (over bytes [0,52))
//	snapshot bytes (GIANTBIN union snapshot) + CRC32C (uint32)
//	state bytes (opaque host blob)           + CRC32C (uint32)
//
// Publication keeps the atomic-rename discipline of the log itself: the
// new artifact is written to a temp file and fsynced, the current
// primary (if any) is hard-linked into its ".prev" slot, and the temp
// file is renamed over the primary. The primary path therefore never
// disappears once it exists, a crash at any point leaves at least one
// fully intact artifact, and readers walk the ladder newest-first:
// primary checkpoint, previous checkpoint, full log replay. Publishers
// of one shard serialize on an advisory file lock and never replace a
// primary with one that covers less of the log.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
)

// CheckpointMagic is the 8-byte tag every checkpoint artifact starts
// with.
const CheckpointMagic = "GIANTCKP"

// CheckpointVersion is the current checkpoint format version.
const CheckpointVersion = 1

const (
	ckptHeaderSize = 56
	ckptTrailSize  = 4
)

// Checkpoint is one published artifact: the shard's union snapshot in
// GIANTBIN encoding plus an opaque host-state blob, stamped with the
// log position it covers and the serving generation a replica must
// resume at.
type Checkpoint struct {
	Shard      int
	Shards     int
	WALGen     uint64 // last log generation whose effects are included
	ServingGen uint64 // shard server generation at that log position
	Snapshot   []byte // GIANTBIN-encoded union snapshot
	State      []byte // opaque host state (mining context, click log tail)
}

// CheckpointMeta is the header-only view of an artifact — enough for
// the router to learn the covered log position without decoding
// megabytes of snapshot.
type CheckpointMeta struct {
	Shard      int
	Shards     int
	WALGen     uint64
	ServingGen uint64
}

// CheckpointPath returns the canonical primary checkpoint path for a
// shard log directory, alongside the shard's .wal file.
func CheckpointPath(dir string, shard, shards int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.ckpt", shard, shards))
}

// PrevCheckpointPath returns the rotation slot the previous primary is
// moved to when a new checkpoint is published.
func PrevCheckpointPath(dir string, shard, shards int) string {
	return CheckpointPath(dir, shard, shards) + ".prev"
}

// encodeCheckpoint renders the full artifact bytes.
func encodeCheckpoint(ck *Checkpoint) []byte {
	buf := make([]byte, ckptHeaderSize+len(ck.Snapshot)+ckptTrailSize+len(ck.State)+ckptTrailSize)
	copy(buf[0:8], CheckpointMagic)
	binary.LittleEndian.PutUint32(buf[8:], CheckpointVersion)
	binary.LittleEndian.PutUint32(buf[12:], uint32(int32(ck.Shard)))
	binary.LittleEndian.PutUint32(buf[16:], uint32(int32(ck.Shards)))
	binary.LittleEndian.PutUint64(buf[20:], ck.WALGen)
	binary.LittleEndian.PutUint64(buf[28:], ck.ServingGen)
	binary.LittleEndian.PutUint64(buf[36:], uint64(len(ck.Snapshot)))
	binary.LittleEndian.PutUint64(buf[44:], uint64(len(ck.State)))
	binary.LittleEndian.PutUint32(buf[52:], crc32.Checksum(buf[:52], crcTable))
	off := ckptHeaderSize
	copy(buf[off:], ck.Snapshot)
	off += len(ck.Snapshot)
	binary.LittleEndian.PutUint32(buf[off:], crc32.Checksum(ck.Snapshot, crcTable))
	off += ckptTrailSize
	copy(buf[off:], ck.State)
	off += len(ck.State)
	binary.LittleEndian.PutUint32(buf[off:], crc32.Checksum(ck.State, crcTable))
	return buf
}

// PublishCheckpoint makes ck the primary checkpoint for its shard in
// dir and moves the primary it replaces to the ".prev" slot — unless the
// existing primary already covers ck.WALGen or more, in which case
// neither slot is touched: the router may have truncated the log against
// that primary, so the covered position must never move backwards.
//
// Several replicas of a shard publish into the same directory at their
// own pace. They serialize here on an advisory lock (released by the
// kernel if the holder dies) held across the coverage check, the
// rotation and the rename; without it a slow replica's older artifact
// could pass the check and then overwrite a newer one, and two such
// rotations would push the only artifact covering the truncated log out
// of both slots.
func PublishCheckpoint(dir string, ck *Checkpoint) error {
	primary := CheckpointPath(dir, ck.Shard, ck.Shards)
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
		prev := PrevCheckpointPath(dir, ck.Shard, ck.Shards)
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

// readCheckpointHeader validates the fixed header and returns its
// fields plus the expected total artifact size.
func readCheckpointHeader(data []byte) (meta CheckpointMeta, snapLen, stateLen uint64, err error) {
	if len(data) < ckptHeaderSize {
		return meta, 0, 0, fmt.Errorf("%w: checkpoint shorter than its header", ErrTruncated)
	}
	if string(data[0:8]) != CheckpointMagic {
		return meta, 0, 0, fmt.Errorf("%w: not a GIANTCKP checkpoint", ErrBadMagic)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != CheckpointVersion {
		return meta, 0, 0, fmt.Errorf("%w: checkpoint version %d", ErrFormatVersion, v)
	}
	if sum := binary.LittleEndian.Uint32(data[52:]); sum != crc32.Checksum(data[:52], crcTable) {
		return meta, 0, 0, fmt.Errorf("%w: checkpoint header", ErrChecksum)
	}
	meta.Shard = int(int32(binary.LittleEndian.Uint32(data[12:])))
	meta.Shards = int(int32(binary.LittleEndian.Uint32(data[16:])))
	meta.WALGen = binary.LittleEndian.Uint64(data[20:])
	meta.ServingGen = binary.LittleEndian.Uint64(data[28:])
	snapLen = binary.LittleEndian.Uint64(data[36:])
	stateLen = binary.LittleEndian.Uint64(data[44:])
	if snapLen > MaxPayload || stateLen > MaxPayload {
		return meta, 0, 0, fmt.Errorf("%w: checkpoint claims %d-byte snapshot, %d-byte state", ErrCorrupt, snapLen, stateLen)
	}
	return meta, snapLen, stateLen, nil
}

// ReadCheckpoint loads and fully validates the checkpoint at path:
// header CRC, section CRCs, exact length, and shard identity. Every
// corruption mode maps onto the same typed errors as the log itself so
// callers can ladder with errors.Is.
func ReadCheckpoint(path string, shard, shards int) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	meta, snapLen, stateLen, err := readCheckpointHeader(data)
	if err != nil {
		return nil, err
	}
	if meta.Shard != shard || meta.Shards != shards {
		return nil, fmt.Errorf("%w: checkpoint is shard %d/%d, want %d/%d", ErrShardMismatch, meta.Shard, meta.Shards, shard, shards)
	}
	want := ckptHeaderSize + int(snapLen) + ckptTrailSize + int(stateLen) + ckptTrailSize
	if len(data) != want {
		return nil, fmt.Errorf("%w: checkpoint is %d bytes, header promises %d", ErrTruncated, len(data), want)
	}
	off := ckptHeaderSize
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
	return &Checkpoint{
		Shard:      meta.Shard,
		Shards:     meta.Shards,
		WALGen:     meta.WALGen,
		ServingGen: meta.ServingGen,
		Snapshot:   snap,
		State:      state,
	}, nil
}

// ReadCheckpointMeta reads and header-CRC-validates only the fixed
// header — the cheap probe the router uses to learn what log position a
// published checkpoint covers before truncating below it. The section
// payloads are NOT verified; use ReadCheckpoint before trusting the
// contents.
func ReadCheckpointMeta(path string) (CheckpointMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return CheckpointMeta{}, err
	}
	defer f.Close()
	var hdr [ckptHeaderSize]byte
	if _, err := readFull(f, hdr[:]); err != nil {
		return CheckpointMeta{}, fmt.Errorf("%w: checkpoint shorter than its header", ErrTruncated)
	}
	meta, _, _, err := readCheckpointHeader(hdr[:])
	return meta, err
}

// readFull reads exactly len(buf) bytes from the start of f.
func readFull(f *os.File, buf []byte) (int, error) {
	n, err := f.ReadAt(buf, 0)
	if n == len(buf) {
		return n, nil
	}
	if err == nil {
		err = errors.New("wal: short read")
	}
	return n, err
}
