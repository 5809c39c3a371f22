// Package wal implements the fleet's streaming delta log: an append-only,
// CRC32C-checksummed record log of delta.Batch payloads that replicated
// giantd backends tail to stay current.
//
// A fleet has one log, DIR/fleet.wal (LogPath). The router appends every
// accepted batch to it exactly once, stamping each record with a dense,
// monotonically increasing log generation (1, 2, 3, ...); every replica
// of every shard applies the records in order through its own mining
// system, which — because mining is deterministic — reproduces the exact
// projections of every peer at the same log position. The fleet mines
// each record once: the first replica to reach it publishes the mined
// outcome beside the log for the others (outcome.go). A shard's serving
// generation is itself a log generation: the last one that changed it.
// The header's shard identity is checked on open; the fleet log is
// stamped 0 of 1.
//
// Layout (all integers little-endian):
//
//	header, version 1 (24 bytes — fresh logs)
//	  0   magic "GIANTWAL" (8 bytes)
//	  8   format version   (uint32, 1)
//	  12  shard index i    (int32)
//	  16  shard count k    (int32)
//	  20  header CRC32C    (over bytes [0,20))
//	header, version 2 (32 bytes — compacted logs)
//	  0   magic "GIANTWAL" (8 bytes)
//	  8   format version   (uint32, 2)
//	  12  shard index i    (int32)
//	  16  shard count k    (int32)
//	  20  base generation  (uint64: records 1..base were compacted away)
//	  28  header CRC32C    (over bytes [0,28))
//	record (16-byte prefix + payload + trailer)
//	  0   log generation   (uint64, dense from base+1)
//	  8   batch day        (int32, informational)
//	  12  payload length   (uint32)
//	  16  payload          (delta.Batch JSON)
//	  16+len  record CRC32C (uint32, over bytes [0, 16+len))
//
// Recovery is truncation-safe in the GIANTBIN style: the file is
// created via write-temp-fsync-rename so a crash can never surface a
// half-written header, every append is a single write followed by
// fsync, and Open drops a torn final record (short bytes, or a bad
// checksum, at EOF) by truncating back to the last intact boundary. A
// mid-log record that fails its checksum is bit rot, not a torn write,
// and is rejected with ErrChecksum rather than silently dropped.
//
// Compaction (TruncateBelow) rewrites the log as a version-2 file whose
// header records the dropped prefix's last generation, copying only the
// surviving suffix byte-for-byte and publishing it with the same atomic
// rename, so a crash mid-truncation leaves the old log fully intact.
// Records at or below a log's base generation are gone; a reader that
// still needs them gets ErrCompacted and must rehydrate from a
// checkpoint instead (see checkpoint.go).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Magic is the 8-byte tag every delta log starts with.
const Magic = "GIANTWAL"

// LogPath returns the fleet delta log's path in a log directory.
func LogPath(dir string) string { return filepath.Join(dir, "fleet.wal") }

// Version is the format version of a fresh (never-compacted) log.
const Version = 1

// VersionCompacted is the format version written by TruncateBelow: the
// header grows a base-generation field recording the compacted prefix.
const VersionCompacted = 2

const (
	headerSize    = 24
	header2Size   = 32
	recPrefixSize = 16
	recTrailSize  = 4
	// MaxPayload bounds a single record's payload so a corrupt length
	// field cannot provoke a multi-gigabyte allocation.
	MaxPayload = 1 << 30
)

// Typed log errors. Callers branch with errors.Is.
var (
	// ErrBadMagic reports a file that does not start with the GIANTWAL
	// magic.
	ErrBadMagic = errors.New("wal: not a GIANTWAL log (bad magic)")
	// ErrTruncated reports a log shorter than its header — the
	// signature of a partially copied file (a torn header can not occur:
	// the header is published by atomic rename).
	ErrTruncated = errors.New("wal: truncated GIANTWAL log")
	// ErrChecksum reports a header, or a mid-log record, whose CRC32C
	// does not match its bytes — bit rot or in-place tampering. A
	// checksum failure on the FINAL record is indistinguishable from a
	// torn append and is dropped by Open instead.
	ErrChecksum = errors.New("wal: GIANTWAL checksum mismatch")
	// ErrFormatVersion reports a log written by a newer format version
	// than this reader understands.
	ErrFormatVersion = errors.New("wal: unsupported GIANTWAL format version")
	// ErrCorrupt reports a log whose checksums pass but whose contents
	// violate a structural invariant (non-dense generations, absurd
	// payload length).
	ErrCorrupt = errors.New("wal: corrupt GIANTWAL log")
	// ErrShardMismatch reports a log stamped for a different shard
	// identity than the opener expected, or a checkpoint written for a
	// different shard count.
	ErrShardMismatch = errors.New("wal: log belongs to a different shard")
	// ErrCompacted reports a request for generations at or below a
	// compacted log's base: those records were truncated away and can
	// only be recovered through a checkpoint.
	ErrCompacted = errors.New("wal: generation compacted away")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one appended batch: the payload bytes exactly as handed to
// Append, stamped with the dense log generation assigned at append time.
type Record struct {
	Gen     uint64
	Day     int
	Payload []byte
}

// Log is the writer's handle on a delta log. A Log is safe for
// concurrent use; appends are serialized internally.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	shard  int
	shards int
	base   uint64        // last compacted-away generation (0 for fresh logs)
	hdrLen int64         // 24 for version-1 headers, 32 for compacted logs
	head   atomic.Uint64 // generation of the last intact record; read without mu
	size   int64         // file offset past the last intact record
	offs   []int64       // offs[g-base-1] = file offset of record g's prefix
	// failed is the first write or fsync error of an Append. Its record may
	// already be visible to readers, so the log refuses to write past head
	// again until reopened; Open's recovery then adopts or drops the tail.
	failed error
	sync   func(*os.File) error // (*os.File).Sync; a seam for fault tests
}

// Create writes an empty log for shard/shards at path via the atomic
// temp-fsync-rename idiom, failing if path already exists.
func Create(path string, shard, shards int) (*Log, error) {
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("wal: %s already exists", path)
	}
	if err := writeHeaderAtomic(path, shard, shards); err != nil {
		return nil, err
	}
	return Open(path, shard, shards)
}

// Open opens (creating if absent) the delta log for shard/shards at
// path, recovering a torn final record by truncating back to the last
// intact boundary. A checksum failure on a fully present record is
// reported as ErrChecksum, and a log stamped for a different shard
// identity as ErrShardMismatch.
func Open(path string, shard, shards int) (*Log, error) {
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		if err := writeHeaderAtomic(path, shard, shards); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	lg := &Log{f: f, path: path, shard: shard, shards: shards, sync: (*os.File).Sync}
	if err := lg.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return lg, nil
}

// recover validates the header, scans every record, and truncates a
// torn tail.
func (l *Log) recover() error {
	base, hdrLen, err := checkHeader(l.f, l.shard, l.shards)
	if err != nil {
		return err
	}
	l.base, l.hdrLen = base, hdrLen
	l.head.Store(base)
	fi, err := l.f.Stat()
	if err != nil {
		return err
	}
	fileSize := fi.Size()
	off := hdrLen
	for off < fileSize {
		rec, end, err := readRecordAt(l.f, off, fileSize)
		if err != nil {
			if errors.Is(err, errShortRecord) || errors.Is(err, errPendingTail) {
				// Torn final append: drop it. A full-length final record
				// with a bad checksum is torn too — a crash mid-write can
				// extend the file before every page lands.
				if terr := l.f.Truncate(off); terr != nil {
					return terr
				}
				if terr := l.f.Sync(); terr != nil {
					return terr
				}
				break
			}
			return err
		}
		if rec.Gen != l.head.Load()+1 {
			return fmt.Errorf("%w: record at offset %d has generation %d, want %d", ErrCorrupt, off, rec.Gen, l.head.Load()+1)
		}
		l.offs = append(l.offs, off)
		l.head.Store(rec.Gen)
		off = end
	}
	l.size = hdrLen
	if n := len(l.offs); n > 0 {
		last, _, err := recordSpanAt(l.f, l.offs[n-1])
		if err != nil {
			return err
		}
		l.size = last
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		return err
	}
	return nil
}

// Head returns the generation of the last intact record (0 when the
// log is empty). It never waits for an append's fsync.
func (l *Log) Head() uint64 {
	return l.head.Load()
}

// BaseGen returns the last compacted-away generation: every surviving
// record has a strictly greater generation. 0 means nothing was ever
// truncated.
func (l *Log) BaseGen() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Err returns the append failure that stopped the log, or nil while it
// takes appends.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Append durably appends payload as the next record and returns the
// log generation it was assigned. The record is written with a single
// write call and fsynced before Append returns. After a failed write or
// fsync the outcome of that record is unknown, and every later Append
// returns the first failure until the log is reopened.
func (l *Log) Append(day int, payload []byte) (uint64, error) {
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("wal: payload of %d bytes exceeds the %d-byte record bound", len(payload), MaxPayload)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return 0, fmt.Errorf("wal: an earlier append failed, reopen the log to recover: %w", l.failed)
	}
	gen := l.head.Load() + 1
	buf := make([]byte, recPrefixSize+len(payload)+recTrailSize)
	binary.LittleEndian.PutUint64(buf[0:], gen)
	binary.LittleEndian.PutUint32(buf[8:], uint32(int32(day)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(payload)))
	copy(buf[recPrefixSize:], payload)
	sum := crc32.Checksum(buf[:recPrefixSize+len(payload)], crcTable)
	binary.LittleEndian.PutUint32(buf[recPrefixSize+len(payload):], sum)
	if _, err := l.f.WriteAt(buf, l.size); err != nil {
		l.failed = err
		return 0, err
	}
	if err := l.sync(l.f); err != nil {
		l.failed = err
		return 0, err
	}
	l.offs = append(l.offs, l.size)
	l.size += int64(len(buf))
	l.head.Store(gen)
	return gen, nil
}

// TruncateBelow drops every record with generation at or below floor by
// rewriting the log as a compacted (version-2) file whose header
// carries the new base generation. Only the surviving suffix is copied
// — O(suffix), not O(history) — and the result is published with the
// same temp-fsync-rename idiom as log creation, so a crash mid-way
// leaves the old log fully intact. The writer's handle is swapped to
// the new file under the log mutex; cross-process readers detect the
// inode swap once they drain the old file and reopen at their position
// (see Reader.Next). Floors above the head are clamped; floors at or
// below the current base leave the log as it is. Either way every mined
// outcome (and claim) at or below the floor is deleted with it.
func (l *Log) TruncateBelow(floor uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return fmt.Errorf("wal: an earlier append failed, reopen the log to recover: %w", l.failed)
	}
	if floor > l.head.Load() {
		floor = l.head.Load()
	}
	if floor <= l.base {
		return pruneOutcomes(dirOf(l.path), floor)
	}
	start := l.size
	if floor < l.head.Load() {
		start = l.offs[floor-l.base]
	}
	tmp, err := os.CreateTemp(dirOf(l.path), "wal.tmp-*")
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
	var hdr [header2Size]byte
	copy(hdr[0:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:], VersionCompacted)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(int32(l.shard)))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(int32(l.shards)))
	binary.LittleEndian.PutUint64(hdr[20:], floor)
	binary.LittleEndian.PutUint32(hdr[28:], crc32.Checksum(hdr[:28], crcTable))
	if _, err := tmp.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := io.Copy(tmp, io.NewSectionReader(l.f, start, l.size-start)); err != nil {
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
	// Open the writer's new handle through the temp name BEFORE the
	// rename: same inode either way, and it keeps the rename the final
	// fallible step — any earlier failure leaves the old log untouched.
	newSize := l.size - start + header2Size
	nf, err := os.OpenFile(tmpName, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := nf.Seek(newSize, io.SeekStart); err != nil {
		nf.Close()
		return err
	}
	if err := os.Rename(tmpName, l.path); err != nil {
		nf.Close()
		return err
	}
	committed = true
	newOffs := make([]int64, 0, l.head.Load()-floor)
	for g := floor + 1; g <= l.head.Load(); g++ {
		newOffs = append(newOffs, l.offs[g-l.base-1]-start+header2Size)
	}
	l.f.Close()
	l.f = nf
	l.base = floor
	l.hdrLen = header2Size
	l.offs = newOffs
	l.size = newSize
	return pruneOutcomes(dirOf(l.path), floor)
}

// Close releases the file handle. The log stays replayable on disk.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Reader is a follower's cursor over a (possibly still growing) delta
// log, typically in another process than the writer. Next returns
// records in order and reports "nothing new yet" — a short or
// checksum-failing tail is treated as an append in flight, since the
// writer fsyncs whole records and repairs genuinely torn tails on its
// own next Open.
//
// A Reader opened with OpenReaderAt carries a skip floor: records at or
// below it are hopped over structurally (prefix-only reads — no payload
// copy, no checksum) because their effects are already covered by the
// caller's checkpoint; the next record's dense-generation check
// re-validates the file alignment.
type Reader struct {
	f       *os.File
	fi      os.FileInfo // identity at open time, to detect compaction swaps
	path    string
	shard   int
	shards  int
	off     int64
	lastGen uint64
	floor   uint64 // records with gen <= floor are skipped without copying
}

// OpenReaderAt opens a read-only cursor that yields only records with
// generation strictly greater than afterGen, structurally skipping the
// prefix at or below it. If the log was truncated past afterGen (its
// base generation exceeds it), the requested records no longer exist
// and OpenReaderAt reports ErrCompacted.
func OpenReaderAt(path string, shard, shards int, afterGen uint64) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	base, hdrLen, err := checkHeader(f, shard, shards)
	if err != nil {
		f.Close()
		return nil, err
	}
	if base > afterGen {
		f.Close()
		return nil, fmt.Errorf("%w: reader wants records after generation %d, but the log starts after %d", ErrCompacted, afterGen, base)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Reader{
		f:       f,
		fi:      fi,
		path:    path,
		shard:   shard,
		shards:  shards,
		off:     hdrLen,
		lastGen: base,
		floor:   afterGen,
	}, nil
}

// Next returns the next record past the skip floor, or nil when the log
// has no complete record past the cursor yet. A record that is fully
// present but fails its checksum while further records exist behind it
// is reported as ErrChecksum. When the cursor idles at the end of a
// file the writer has since compacted (rename swapped a new inode into
// place), Next transparently reopens the new file at its position —
// safe because the old inode is frozen at the swap and fully drained
// first — and yields ErrCompacted only if the truncation outran this
// reader.
func (r *Reader) Next() (*Record, error) {
	rec, idle, err := r.advance()
	if err != nil || rec != nil {
		return rec, err
	}
	if !idle {
		return nil, nil
	}
	fi, err := os.Stat(r.path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	if os.SameFile(r.fi, fi) {
		return nil, nil
	}
	if err := r.reopen(); err != nil {
		return nil, err
	}
	rec, _, err = r.advance()
	return rec, err
}

// advance reads (or structurally skips, below the floor) the next
// record in the currently open file. idle reports a clean "nothing
// complete yet" tail.
func (r *Reader) advance() (rec *Record, idle bool, err error) {
	fi, err := r.f.Stat()
	if err != nil {
		return nil, false, err
	}
	fileSize := fi.Size()
	for r.lastGen < r.floor {
		gen, end, err := skipRecordAt(r.f, r.off, fileSize)
		if err != nil {
			if errors.Is(err, errShortRecord) {
				return nil, true, nil
			}
			return nil, false, err
		}
		if gen != r.lastGen+1 {
			return nil, false, fmt.Errorf("%w: record at offset %d has generation %d, want %d", ErrCorrupt, r.off, gen, r.lastGen+1)
		}
		r.off = end
		r.lastGen = gen
	}
	full, end, err := readRecordAt(r.f, r.off, fileSize)
	if err != nil {
		if errors.Is(err, errShortRecord) || errors.Is(err, errPendingTail) {
			return nil, true, nil
		}
		return nil, false, err
	}
	if full.Gen != r.lastGen+1 {
		return nil, false, fmt.Errorf("%w: record at offset %d has generation %d, want %d", ErrCorrupt, r.off, full.Gen, r.lastGen+1)
	}
	r.off = end
	r.lastGen = full.Gen
	return &full, false, nil
}

// reopen follows a compaction swap: open the file now at path, verify
// its identity, and structurally skip to this reader's position.
func (r *Reader) reopen() error {
	f, err := os.Open(r.path)
	if err != nil {
		return err
	}
	base, hdrLen, err := checkHeader(f, r.shard, r.shards)
	if err != nil {
		f.Close()
		return err
	}
	if base > r.lastGen {
		f.Close()
		return fmt.Errorf("%w: log was truncated past generation %d (new base %d); rehydrate from a checkpoint", ErrCompacted, r.lastGen, base)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	off := hdrLen
	fileSize := fi.Size()
	for g := base; g < r.lastGen; g++ {
		gen, end, err := skipRecordAt(f, off, fileSize)
		if err != nil {
			f.Close()
			return fmt.Errorf("wal: repositioning after compaction: %w", err)
		}
		if gen != g+1 {
			f.Close()
			return fmt.Errorf("%w: record at offset %d has generation %d, want %d", ErrCorrupt, off, gen, g+1)
		}
		off = end
	}
	r.f.Close()
	r.f = f
	r.fi = fi
	r.off = off
	return nil
}

// Close releases the cursor's file handle.
func (r *Reader) Close() error { return r.f.Close() }

// errShortRecord reports a record whose bytes end before its trailer —
// at EOF this is a torn (or in-flight) append.
var errShortRecord = errors.New("wal: short record")

// errPendingTail reports a checksum-failing final record with no bytes
// behind it — readers treat it as an append still being flushed.
var errPendingTail = errors.New("wal: unflushed tail record")

// writeHeaderAtomic publishes a fresh (version-1) log header via
// temp-fsync-rename so no reader can ever observe a partial header.
func writeHeaderAtomic(path string, shard, shards int) (err error) {
	tmp, err := os.CreateTemp(dirOf(path), "wal.tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	var hdr [headerSize]byte
	copy(hdr[0:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(int32(shard)))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(int32(shards)))
	binary.LittleEndian.PutUint32(hdr[20:], crc32.Checksum(hdr[:20], crcTable))
	if _, err = tmp.Write(hdr[:]); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Chmod(0o644); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			return path[:i+1]
		}
	}
	return "."
}

// checkHeader validates magic, version, checksum, and shard identity,
// and returns the log's base generation (0 for version-1 headers) plus
// the header length records start after.
func checkHeader(f *os.File, shard, shards int) (base uint64, hdrLen int64, err error) {
	var hdr [header2Size]byte
	n, err := f.ReadAt(hdr[:], 0)
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return 0, 0, err
	}
	if n < headerSize {
		return 0, 0, ErrTruncated
	}
	if string(hdr[0:8]) != Magic {
		return 0, 0, ErrBadMagic
	}
	switch v := binary.LittleEndian.Uint32(hdr[8:]); v {
	case Version:
		if sum := binary.LittleEndian.Uint32(hdr[20:]); sum != crc32.Checksum(hdr[:20], crcTable) {
			return 0, 0, fmt.Errorf("%w: header", ErrChecksum)
		}
		hdrLen = headerSize
	case VersionCompacted:
		if n < header2Size {
			return 0, 0, ErrTruncated
		}
		if sum := binary.LittleEndian.Uint32(hdr[28:]); sum != crc32.Checksum(hdr[:28], crcTable) {
			return 0, 0, fmt.Errorf("%w: header", ErrChecksum)
		}
		base = binary.LittleEndian.Uint64(hdr[20:])
		hdrLen = header2Size
	default:
		return 0, 0, fmt.Errorf("%w: version %d", ErrFormatVersion, v)
	}
	gotShard := int(int32(binary.LittleEndian.Uint32(hdr[12:])))
	gotShards := int(int32(binary.LittleEndian.Uint32(hdr[16:])))
	if gotShard != shard || gotShards != shards {
		return 0, 0, fmt.Errorf("%w: log is shard %d/%d, want %d/%d", ErrShardMismatch, gotShard, gotShards, shard, shards)
	}
	return base, hdrLen, nil
}

// recordSpanAt returns the end offset of the record starting at off,
// trusting its (already validated) length field.
func recordSpanAt(f *os.File, off int64) (end int64, n uint32, err error) {
	var pre [recPrefixSize]byte
	if _, err := f.ReadAt(pre[:], off); err != nil {
		return 0, 0, err
	}
	n = binary.LittleEndian.Uint32(pre[12:])
	return off + int64(recPrefixSize) + int64(n) + recTrailSize, n, nil
}

// skipRecordAt structurally parses the record prefix at off without
// copying the payload or verifying its checksum — used to hop over
// records whose effects are already covered by a checkpoint. Alignment
// stays validated: the caller checks the returned generation is dense,
// and the first fully-read record past the floor re-anchors the CRC
// chain.
func skipRecordAt(f *os.File, off, fileSize int64) (gen uint64, end int64, err error) {
	if off+recPrefixSize > fileSize {
		return 0, 0, errShortRecord
	}
	var pre [recPrefixSize]byte
	if _, err := f.ReadAt(pre[:], off); err != nil {
		return 0, 0, err
	}
	gen = binary.LittleEndian.Uint64(pre[0:])
	n := binary.LittleEndian.Uint32(pre[12:])
	if n > MaxPayload {
		return 0, 0, fmt.Errorf("%w: record at offset %d claims %d-byte payload", ErrCorrupt, off, n)
	}
	end = off + int64(recPrefixSize) + int64(n) + recTrailSize
	if end > fileSize {
		return 0, 0, errShortRecord
	}
	return gen, end, nil
}

// readRecordAt parses and checksums the record starting at off in a
// file of fileSize bytes. A record whose bytes end before its trailer
// yields errShortRecord; a fully present record with a bad checksum
// yields ErrChecksum when further bytes follow it (provably not a torn
// append) and errPendingTail when it sits at EOF.
func readRecordAt(f *os.File, off, fileSize int64) (Record, int64, error) {
	if off+recPrefixSize > fileSize {
		return Record{}, 0, errShortRecord
	}
	var pre [recPrefixSize]byte
	if _, err := f.ReadAt(pre[:], off); err != nil {
		return Record{}, 0, err
	}
	gen := binary.LittleEndian.Uint64(pre[0:])
	day := int(int32(binary.LittleEndian.Uint32(pre[8:])))
	n := binary.LittleEndian.Uint32(pre[12:])
	if n > MaxPayload {
		return Record{}, 0, fmt.Errorf("%w: record at offset %d claims %d-byte payload", ErrCorrupt, off, n)
	}
	end := off + int64(recPrefixSize) + int64(n) + recTrailSize
	if end > fileSize {
		return Record{}, 0, errShortRecord
	}
	body := make([]byte, recPrefixSize+int(n)+recTrailSize)
	if _, err := f.ReadAt(body, off); err != nil {
		return Record{}, 0, err
	}
	want := binary.LittleEndian.Uint32(body[recPrefixSize+int(n):])
	if got := crc32.Checksum(body[:recPrefixSize+int(n)], crcTable); got != want {
		if end == fileSize {
			return Record{}, 0, errPendingTail
		}
		return Record{}, 0, fmt.Errorf("%w: record at offset %d", ErrChecksum, off)
	}
	payload := make([]byte, n)
	copy(payload, body[recPrefixSize:recPrefixSize+int(n)])
	return Record{Gen: gen, Day: day, Payload: payload}, end, nil
}
