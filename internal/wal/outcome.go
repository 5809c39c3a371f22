// Mined outcomes: the fleet mines each log record once. Mining is
// deterministic, so every replica of every shard would otherwise derive the
// same mined attentions for the same record; instead the first replica to
// reach record g takes a claim on DIR/mined/<g>, mines, and renames the
// result into place, and every other replica applies that result.
//
// DIR/mined/<g> has three states. Absent: nobody has reached g yet. Empty:
// a replica holds the claim (created with O_EXCL, so exactly one replica
// wins it) and is mining; the file's mtime is the claim's age. Non-empty:
// the outcome, published by an atomic rename over the claim.
//
// Layout of an outcome (all integers little-endian):
//
//	0   magic "GIANTMIN"       (8 bytes)
//	8   format version         (uint32, currently 1)
//	12  body length n          (uint32, at most MaxPayload)
//	16  log generation         (uint64: the record this outcome is for)
//	24  SHA-256 of the payload (32 bytes: the record's delta.Batch JSON)
//	56  body                   (n bytes, opaque host blob)
//	56+n CRC32C                (uint32, over bytes [0, 56+n))
//
// An outcome is a cache, not a source of truth: one that is missing, torn,
// corrupt or written for another record (a torn log tail was recovered and
// a different batch took its position) is ignored and the replica mines
// the record itself. That is why publication needs no fsync — a lost
// outcome costs one re-mine. Log cuts (Log.TruncateBelow) delete every
// claim and outcome at or below the cut, so the directory is bounded by
// the log it sits beside.
package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// OutcomeMagic is the 8-byte tag every mined outcome starts with.
const OutcomeMagic = "GIANTMIN"

// OutcomeVersion is the current mined-outcome format version.
const OutcomeVersion = 1

// OutcomeWait bounds how long a replica waits for a claimed record's
// outcome. A claim older than this is abandoned (its holder died or is
// stuck) and costs no wait at all: the replica mines the record itself.
const OutcomeWait = 2 * time.Second

const (
	outcomeHeaderSize = 56
	outcomeTrailSize  = 4
	// outcomePoll is the re-check interval while a claim is pending.
	outcomePoll = time.Millisecond
)

// ErrForeignOutcome reports an intact outcome written for another log
// record: a different position or a different payload.
var ErrForeignOutcome = errors.New("wal: mined outcome belongs to another record")

// OutcomeDir returns the directory of mined outcomes in a log directory.
func OutcomeDir(dir string) string { return filepath.Join(dir, "mined") }

// OutcomePath returns the claim and outcome path of log record gen.
func OutcomePath(dir string, gen uint64) string {
	return filepath.Join(OutcomeDir(dir), strconv.FormatUint(gen, 10))
}

// EncodeOutcome frames body as the mined outcome of the log record at gen
// whose payload is payload.
func EncodeOutcome(gen uint64, payload, body []byte) []byte {
	buf := make([]byte, outcomeHeaderSize+len(body)+outcomeTrailSize)
	copy(buf[0:8], OutcomeMagic)
	binary.LittleEndian.PutUint32(buf[8:], OutcomeVersion)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(body)))
	binary.LittleEndian.PutUint64(buf[16:], gen)
	sum := sha256.Sum256(payload)
	copy(buf[24:56], sum[:])
	copy(buf[outcomeHeaderSize:], body)
	end := outcomeHeaderSize + len(body)
	binary.LittleEndian.PutUint32(buf[end:], crc32.Checksum(buf[:end], crcTable))
	return buf
}

// DecodeOutcome validates data as the mined outcome of the log record at
// gen with the given payload and returns its body, a subslice of data.
// The length field is checked against len(data) before it is used, so a
// corrupt one allocates nothing.
func DecodeOutcome(data []byte, gen uint64, payload []byte) ([]byte, error) {
	if len(data) < outcomeHeaderSize+outcomeTrailSize {
		return nil, fmt.Errorf("%w: mined outcome shorter than its frame", ErrTruncated)
	}
	if string(data[0:8]) != OutcomeMagic {
		return nil, fmt.Errorf("%w: not a GIANTMIN outcome", ErrBadMagic)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != OutcomeVersion {
		return nil, fmt.Errorf("%w: mined outcome version %d", ErrFormatVersion, v)
	}
	n := uint64(binary.LittleEndian.Uint32(data[12:]))
	if n > MaxPayload || outcomeHeaderSize+n+outcomeTrailSize != uint64(len(data)) {
		return nil, fmt.Errorf("%w: mined outcome is %d bytes, its header promises a %d-byte body", ErrTruncated, len(data), n)
	}
	end := outcomeHeaderSize + int(n)
	if binary.LittleEndian.Uint32(data[end:]) != crc32.Checksum(data[:end], crcTable) {
		return nil, fmt.Errorf("%w: mined outcome", ErrChecksum)
	}
	if g := binary.LittleEndian.Uint64(data[16:]); g != gen {
		return nil, fmt.Errorf("%w: outcome is for log generation %d, not %d", ErrForeignOutcome, g, gen)
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(data[24:56], sum[:]) {
		return nil, fmt.Errorf("%w: outcome for log generation %d was mined from another payload", ErrForeignOutcome, gen)
	}
	return data[outcomeHeaderSize:end], nil
}

// Outcome is one log record's slot in a log directory's mined outcomes:
// the record's position and payload, which a published outcome must match.
type Outcome struct {
	Dir     string // the fleet's log directory
	Gen     uint64
	Payload []byte
}

// Take returns the body another replica published for the record. With
// no usable outcome it returns nil, and claimed reports whether this call
// took the record's claim: the caller then mines the record and Publishes
// the result. While another replica's claim is younger than OutcomeWait,
// Take waits for its outcome; it never waits longer than that.
func (o *Outcome) Take() (body []byte, claimed bool) {
	path := OutcomePath(o.Dir, o.Gen)
	deadline := time.Now().Add(OutcomeWait)
	for {
		data, age, err := readOutcomeFile(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			won, err := o.claim(path)
			if won || err != nil {
				return nil, won
			}
			continue // another replica claimed it first: wait on its claim
		case err != nil:
			return nil, false
		case len(data) > 0:
			body, err := DecodeOutcome(data, o.Gen, o.Payload)
			if err != nil {
				return nil, false
			}
			return body, false
		}
		if age >= OutcomeWait || time.Now().After(deadline) {
			return nil, false
		}
		time.Sleep(outcomePoll)
	}
}

// claim creates the empty claim file; won is false when it already exists.
func (o *Outcome) claim(path string) (won bool, err error) {
	if err := os.MkdirAll(OutcomeDir(o.Dir), 0o755); err != nil {
		return false, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if errors.Is(err, fs.ErrExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, f.Close()
}

// Publish renames body, framed as this record's outcome, over the claim
// Take gave the caller. Without an fsync: a lost outcome costs one re-mine.
// When it fails, Publish drops the claim, so waiting replicas stop waiting
// and mine the record themselves.
func (o *Outcome) Publish(body []byte) error {
	path := OutcomePath(o.Dir, o.Gen)
	err := renameInto(path, EncodeOutcome(o.Gen, o.Payload, body))
	if err != nil {
		if fi, serr := os.Stat(path); serr == nil && fi.Size() == 0 {
			os.Remove(path)
		}
	}
	return err
}

// renameInto writes data to a temp file beside path ("<name>.tmp-*", which
// pruneOutcomes files under the record) and renames it over path.
func renameInto(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// readOutcomeFile reads the claim or outcome at path and the age of its
// last change. A file larger than any outcome can be is read as corrupt.
func readOutcomeFile(path string) ([]byte, time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	const maxOutcome = outcomeHeaderSize + MaxPayload + outcomeTrailSize
	if fi.Size() > maxOutcome {
		return nil, 0, fmt.Errorf("%w: %s is %d bytes", ErrCorrupt, path, fi.Size())
	}
	data, err := io.ReadAll(f)
	return data, time.Since(fi.ModTime()), err
}

// pruneOutcomes deletes every claim, outcome and leftover temp file of a
// log record at or below floor in the log directory dir.
func pruneOutcomes(dir string, floor uint64) error {
	ents, err := os.ReadDir(OutcomeDir(dir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: pruning mined outcomes at or below %d: %w", floor, err)
	}
	for _, e := range ents {
		name, _, _ := strings.Cut(e.Name(), ".")
		g, err := strconv.ParseUint(name, 10, 64)
		if err != nil || g > floor {
			continue
		}
		if err := os.Remove(filepath.Join(OutcomeDir(dir), e.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("wal: pruning mined outcomes at or below %d: %w", floor, err)
		}
	}
	return nil
}
