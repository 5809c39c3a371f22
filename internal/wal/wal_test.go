package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeSample appends n records to a fresh log and returns its path
// plus the byte offsets of every record boundary (including the header
// boundary and final EOF), for surgical truncation.
func writeSample(t *testing.T, n int) (path string, bounds []int64, payloads [][]byte) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "shard-0-of-2.wal")
	lg, err := Open(path, 0, 2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer lg.Close()
	bounds = append(bounds, headerSize)
	for i := 0; i < n; i++ {
		p := []byte(fmt.Sprintf(`{"day":%d,"docs":[{"title":"doc %d"}]}`, i+1, i))
		gen, err := lg.Append(i+1, p)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if gen != uint64(i+1) {
			t.Fatalf("Append %d assigned generation %d, want %d", i, gen, i+1)
		}
		payloads = append(payloads, p)
		bounds = append(bounds, bounds[len(bounds)-1]+int64(recPrefixSize+len(p)+recTrailSize))
	}
	return path, bounds, payloads
}

// tailAll reads every record past after through a fresh OpenReaderAt
// cursor on lg's file, the way a replica tails the log.
func tailAll(t *testing.T, lg *Log, after uint64) []Record {
	t.Helper()
	rd, err := OpenReaderAt(lg.path, lg.shard, lg.shards, after)
	if err != nil {
		t.Fatalf("OpenReaderAt(%d): %v", after, err)
	}
	defer rd.Close()
	var recs []Record
	for {
		rec, err := rd.Next()
		if err != nil {
			t.Fatalf("Next after %d: %v", after, err)
		}
		if rec == nil {
			return recs
		}
		recs = append(recs, *rec)
	}
}

func TestRoundTrip(t *testing.T) {
	path, _, payloads := writeSample(t, 5)
	lg, err := Open(path, 0, 2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer lg.Close()
	if lg.Head() != 5 {
		t.Fatalf("Head = %d, want 5", lg.Head())
	}
	for after := uint64(0); after <= 5; after++ {
		recs := tailAll(t, lg, after)
		if len(recs) != int(5-after) {
			t.Fatalf("OpenReaderAt(%d) yielded %d records, want %d", after, len(recs), 5-after)
		}
		for i, rec := range recs {
			wantGen := after + uint64(i) + 1
			if rec.Gen != wantGen {
				t.Fatalf("OpenReaderAt(%d)[%d].Gen = %d, want %d", after, i, rec.Gen, wantGen)
			}
			if string(rec.Payload) != string(payloads[wantGen-1]) {
				t.Fatalf("OpenReaderAt(%d)[%d] payload = %q, want %q", after, i, rec.Payload, payloads[wantGen-1])
			}
			if rec.Day != int(wantGen) {
				t.Fatalf("OpenReaderAt(%d)[%d].Day = %d, want %d", after, i, rec.Day, wantGen)
			}
		}
	}
}

func TestAppendAfterReopen(t *testing.T) {
	path, _, _ := writeSample(t, 3)
	lg, err := Open(path, 0, 2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	gen, err := lg.Append(9, []byte(`{"day":9}`))
	if err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if gen != 4 {
		t.Fatalf("generation after reopen = %d, want 4", gen)
	}
	lg.Close()
	lg, err = Open(path, 0, 2)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer lg.Close()
	if lg.Head() != 4 {
		t.Fatalf("Head after reopen = %d, want 4", lg.Head())
	}
}

// TestFailedAppendIsSticky: a record whose fsync failed may already be
// visible to readers, so the log must never hand its generation to a
// different batch. Every later Append (and TruncateBelow) returns the
// first failure, and a reopen adopts the tail the file actually holds.
func TestFailedAppendIsSticky(t *testing.T) {
	path, _, _ := writeSample(t, 2)
	lg, err := Open(path, 0, 2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	injected := errors.New("injected fsync failure")
	lg.sync = func(*os.File) error { return injected }
	if _, err := lg.Append(3, []byte(`{"day":3}`)); !errors.Is(err, injected) {
		t.Fatalf("first Append: err = %v, want the injected failure", err)
	}
	lg.sync = (*os.File).Sync // the disk recovers; the log must not
	if gen, err := lg.Append(4, []byte(`{"day":4}`)); !errors.Is(err, injected) {
		t.Fatalf("Append after a failed append = (%d, %v), want the first failure", gen, err)
	}
	if err := lg.TruncateBelow(1); !errors.Is(err, injected) {
		t.Fatalf("TruncateBelow after a failed append: err = %v, want the first failure", err)
	}
	lg.Close()

	lg, err = Open(path, 0, 2)
	if err != nil {
		t.Fatalf("reopen after the failed append: %v", err)
	}
	defer lg.Close()
	recs := tailAll(t, lg, 0)
	if lg.Head() != uint64(len(recs)) || lg.Head() != 3 {
		t.Fatalf("reopened head %d over %d readable records, want 3", lg.Head(), len(recs))
	}
	if got := string(recs[2].Payload); got != `{"day":3}` {
		t.Fatalf("generation 3 holds %s, want the batch whose fsync failed", got)
	}
	if gen, err := lg.Append(4, []byte(`{"day":4}`)); err != nil || gen != 4 {
		t.Fatalf("Append after reopen = (%d, %v), want generation 4", gen, err)
	}
}

// TestTruncationAtEveryBoundary cuts the file at every record boundary
// and asserts the log reopens cleanly with exactly the surviving prefix.
func TestTruncationAtEveryBoundary(t *testing.T) {
	const n = 5
	for cut := 0; cut <= n; cut++ {
		path, bounds, payloads := writeSample(t, n)
		if err := os.Truncate(path, bounds[cut]); err != nil {
			t.Fatalf("truncate: %v", err)
		}
		lg, err := Open(path, 0, 2)
		if err != nil {
			t.Fatalf("cut at boundary %d: Open: %v", cut, err)
		}
		if lg.Head() != uint64(cut) {
			t.Fatalf("cut at boundary %d: Head = %d, want %d", cut, lg.Head(), cut)
		}
		recs := tailAll(t, lg, 0)
		for i, rec := range recs {
			if string(rec.Payload) != string(payloads[i]) {
				t.Fatalf("cut at boundary %d: record %d payload mismatch", cut, i)
			}
		}
		lg.Close()
	}
}

// TestTornTailDropped truncates mid-record at every interior byte
// offset of the final record and asserts Open drops exactly that
// record, keeps the prefix, and the next append reuses its generation.
func TestTornTailDropped(t *testing.T) {
	path, bounds, _ := writeSample(t, 3)
	last := bounds[len(bounds)-1]
	prev := bounds[len(bounds)-2]
	for cut := prev + 1; cut < last; cut++ {
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		torn := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatalf("write torn copy: %v", err)
		}
		lg, err := Open(torn, 0, 2)
		if err != nil {
			t.Fatalf("cut at byte %d: Open: %v", cut, err)
		}
		if lg.Head() != 2 {
			t.Fatalf("cut at byte %d: Head = %d, want 2", cut, lg.Head())
		}
		gen, err := lg.Append(7, []byte(`{"day":7}`))
		if err != nil {
			t.Fatalf("cut at byte %d: Append: %v", cut, err)
		}
		if gen != 3 {
			t.Fatalf("cut at byte %d: reassigned generation %d, want 3", cut, gen)
		}
		lg.Close()
	}
}

// TestBitFlipMidLog flips one bit in a non-final record and asserts
// Open refuses with ErrChecksum (never silent truncation of good data
// behind the damage).
func TestBitFlipMidLog(t *testing.T) {
	path, bounds, _ := writeSample(t, 3)
	// Flip a payload bit of record 2 (records 1..3 exist).
	target := bounds[1] + recPrefixSize + 2
	flipBit(t, path, target)
	if _, err := Open(path, 0, 2); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Open after mid-log bit flip: err = %v, want ErrChecksum", err)
	}
}

// TestBitFlipTailDropped flips a bit in the FINAL record: on disk this
// is indistinguishable from a torn append, so Open drops it.
func TestBitFlipTailDropped(t *testing.T) {
	path, bounds, _ := writeSample(t, 3)
	target := bounds[2] + recPrefixSize + 2
	flipBit(t, path, target)
	lg, err := Open(path, 0, 2)
	if err != nil {
		t.Fatalf("Open after tail bit flip: %v", err)
	}
	defer lg.Close()
	if lg.Head() != 2 {
		t.Fatalf("Head after dropped tail = %d, want 2", lg.Head())
	}
}

func TestHeaderCorruption(t *testing.T) {
	path, _, _ := writeSample(t, 1)
	flipBit(t, path, 9) // version field
	if _, err := Open(path, 0, 2); !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrFormatVersion) {
		t.Fatalf("Open with corrupt header: err = %v, want ErrChecksum or ErrFormatVersion", err)
	}

	path2, _, _ := writeSample(t, 1)
	flipBit(t, path2, 0) // magic
	if _, err := Open(path2, 0, 2); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Open with bad magic: err = %v, want ErrBadMagic", err)
	}

	short := filepath.Join(t.TempDir(), "short.wal")
	if err := os.WriteFile(short, []byte(Magic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(short, 0, 2); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Open short header: err = %v, want ErrTruncated", err)
	}
}

func TestShardMismatch(t *testing.T) {
	path, _, _ := writeSample(t, 1)
	if _, err := Open(path, 1, 2); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("Open with wrong shard: err = %v, want ErrShardMismatch", err)
	}
	if _, err := OpenReaderAt(path, 0, 4, 0); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("OpenReaderAt with wrong shard count: err = %v, want ErrShardMismatch", err)
	}
}

// TestReaderFollowsWriter interleaves appends with a live reader and
// asserts the reader sees every record exactly once, in order, and
// reports "nothing yet" at the tail instead of erroring.
func TestReaderFollowsWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-1-of-2.wal")
	lg, err := Open(path, 1, 2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer lg.Close()
	rd, err := OpenReaderAt(path, 1, 2, 0)
	if err != nil {
		t.Fatalf("OpenReaderAt: %v", err)
	}
	defer rd.Close()

	if rec, err := rd.Next(); err != nil || rec != nil {
		t.Fatalf("Next on empty log = (%v, %v), want (nil, nil)", rec, err)
	}
	var seen uint64
	for i := 0; i < 4; i++ {
		if _, err := lg.Append(i, []byte(fmt.Sprintf(`{"day":%d}`, i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
		for {
			rec, err := rd.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if rec == nil {
				break
			}
			seen++
			if rec.Gen != seen {
				t.Fatalf("reader saw generation %d, want %d", rec.Gen, seen)
			}
		}
	}
	if seen != 4 {
		t.Fatalf("reader saw %d records, want 4", seen)
	}
}

// TestTruncateBelow compacts a log at an interior floor and asserts the
// suffix survives byte-identical, the dropped prefix reports
// ErrCompacted, and the compacted file reopens with the same state.
func TestTruncateBelow(t *testing.T) {
	path, _, payloads := writeSample(t, 10)
	lg, err := Open(path, 0, 2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := lg.TruncateBelow(4); err != nil {
		t.Fatalf("TruncateBelow(4): %v", err)
	}
	if lg.BaseGen() != 4 || lg.Head() != 10 {
		t.Fatalf("after TruncateBelow(4): base=%d head=%d, want 4/10", lg.BaseGen(), lg.Head())
	}
	recs := tailAll(t, lg, 4)
	if len(recs) != 6 {
		t.Fatalf("OpenReaderAt(4) after truncation yielded %d records, want 6", len(recs))
	}
	for i, rec := range recs {
		wantGen := uint64(5 + i)
		if rec.Gen != wantGen || string(rec.Payload) != string(payloads[wantGen-1]) {
			t.Fatalf("surviving record %d: gen=%d payload=%q, want gen=%d payload=%q", i, rec.Gen, rec.Payload, wantGen, payloads[wantGen-1])
		}
	}
	if _, err := OpenReaderAt(path, 0, 2, 3); !errors.Is(err, ErrCompacted) {
		t.Fatalf("OpenReaderAt(3) on compacted log: err = %v, want ErrCompacted", err)
	}
	// Appends continue against the swapped file with dense generations.
	gen, err := lg.Append(11, []byte(`{"day":11}`))
	if err != nil {
		t.Fatalf("Append after truncation: %v", err)
	}
	if gen != 11 {
		t.Fatalf("Append after truncation assigned generation %d, want 11", gen)
	}
	lg.Close()

	// The compacted file must recover to the identical state on reopen.
	lg2, err := Open(path, 0, 2)
	if err != nil {
		t.Fatalf("reopen compacted: %v", err)
	}
	defer lg2.Close()
	if lg2.BaseGen() != 4 || lg2.Head() != 11 {
		t.Fatalf("reopened compacted log: base=%d head=%d, want 4/11", lg2.BaseGen(), lg2.Head())
	}
	if got := tailAll(t, lg2, 4); len(got) != 7 {
		t.Fatalf("reopened OpenReaderAt(4) yielded %d records, want 7", len(got))
	}
}

// TestTruncateBelowEdges covers clamping above the head, the everything
// case, and the at-or-below-base no-op.
func TestTruncateBelowEdges(t *testing.T) {
	path, _, _ := writeSample(t, 3)
	lg, err := Open(path, 0, 2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer lg.Close()
	if err := lg.TruncateBelow(99); err != nil { // clamps to head=3
		t.Fatalf("TruncateBelow(99): %v", err)
	}
	if lg.BaseGen() != 3 || lg.Head() != 3 {
		t.Fatalf("after full truncation: base=%d head=%d, want 3/3", lg.BaseGen(), lg.Head())
	}
	if recs := tailAll(t, lg, 3); len(recs) != 0 {
		t.Fatalf("OpenReaderAt(3) on fully truncated log yielded %d records, want 0", len(recs))
	}
	if err := lg.TruncateBelow(2); err != nil { // below base: no-op
		t.Fatalf("TruncateBelow(2) no-op: %v", err)
	}
	if lg.BaseGen() != 3 {
		t.Fatalf("no-op truncation moved base to %d", lg.BaseGen())
	}
	gen, err := lg.Append(4, []byte(`{"day":4}`))
	if err != nil || gen != 4 {
		t.Fatalf("Append on fully truncated log = (%d, %v), want (4, nil)", gen, err)
	}
}

// TestOpenReaderAtSkipsFloor opens a cursor with a skip floor and
// asserts only the suffix is yielded.
func TestOpenReaderAtSkipsFloor(t *testing.T) {
	path, _, payloads := writeSample(t, 6)
	rd, err := OpenReaderAt(path, 0, 2, 4)
	if err != nil {
		t.Fatalf("OpenReaderAt: %v", err)
	}
	defer rd.Close()
	var got []uint64
	for {
		rec, err := rd.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if rec == nil {
			break
		}
		if string(rec.Payload) != string(payloads[rec.Gen-1]) {
			t.Fatalf("record %d payload mismatch", rec.Gen)
		}
		got = append(got, rec.Gen)
	}
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("OpenReaderAt(4) yielded %v, want [5 6]", got)
	}
}

// TestReaderCompactedErrors pins the replay-impossible cases: a full
// replay of a compacted log, and a floor below the log's base.
func TestReaderCompactedErrors(t *testing.T) {
	path, _, _ := writeSample(t, 6)
	lg, err := Open(path, 0, 2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := lg.TruncateBelow(4); err != nil {
		t.Fatalf("TruncateBelow: %v", err)
	}
	lg.Close()
	if _, err := OpenReaderAt(path, 0, 2, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("full replay (OpenReaderAt 0) of a compacted log: err = %v, want ErrCompacted", err)
	}
	if _, err := OpenReaderAt(path, 0, 2, 3); !errors.Is(err, ErrCompacted) {
		t.Fatalf("OpenReaderAt(3) below base 4: err = %v, want ErrCompacted", err)
	}
	rd, err := OpenReaderAt(path, 0, 2, 4)
	if err != nil {
		t.Fatalf("OpenReaderAt(4) at base: %v", err)
	}
	rd.Close()
}

// TestReaderFollowsTruncation drives a live cursor across a compaction
// swap: the reader drains the frozen old inode, detects the rename, and
// continues seamlessly in the new file — including records appended
// after the swap.
func TestReaderFollowsTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0-of-1.wal")
	lg, err := Open(path, 0, 1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer lg.Close()
	rd, err := OpenReaderAt(path, 0, 1, 0)
	if err != nil {
		t.Fatalf("OpenReaderAt: %v", err)
	}
	defer rd.Close()
	for i := 1; i <= 6; i++ {
		if _, err := lg.Append(i, []byte(fmt.Sprintf(`{"day":%d}`, i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	// Read only the first two, so the cursor is mid-stream at the swap.
	for want := uint64(1); want <= 2; want++ {
		rec, err := rd.Next()
		if err != nil || rec == nil || rec.Gen != want {
			t.Fatalf("Next = (%v, %v), want generation %d", rec, err, want)
		}
	}
	if err := lg.TruncateBelow(4); err != nil {
		t.Fatalf("TruncateBelow: %v", err)
	}
	for i := 7; i <= 8; i++ {
		if _, err := lg.Append(i, []byte(fmt.Sprintf(`{"day":%d}`, i))); err != nil {
			t.Fatalf("Append %d after truncation: %v", i, err)
		}
	}
	// The reader must surface 3..8 exactly once, in order: 3..6 from
	// the frozen pre-swap inode, 7..8 from the compacted file.
	for want := uint64(3); want <= 8; want++ {
		var rec *Record
		for rec == nil {
			var err error
			rec, err = rd.Next()
			if err != nil {
				t.Fatalf("Next while following truncation: %v", err)
			}
		}
		if rec.Gen != want {
			t.Fatalf("reader saw generation %d, want %d", rec.Gen, want)
		}
	}
	if rec, err := rd.Next(); err != nil || rec != nil {
		t.Fatalf("Next at caught-up tail = (%v, %v), want (nil, nil)", rec, err)
	}
}

// TestCompactedHeaderCorruption flips bits in the version-2 header and
// asserts the checksum catches them.
func TestCompactedHeaderCorruption(t *testing.T) {
	path, _, _ := writeSample(t, 5)
	lg, err := Open(path, 0, 2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := lg.TruncateBelow(3); err != nil {
		t.Fatalf("TruncateBelow: %v", err)
	}
	lg.Close()
	flipBit(t, path, 21) // base-generation field
	if _, err := Open(path, 0, 2); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Open with corrupt base generation: err = %v, want ErrChecksum", err)
	}
}

// TestTruncateCrashLeftoverTemp simulates a crash in the middle of
// TruncateBelow: the rewrite died before the rename, leaving the original
// log untouched and a stray temp file beside it. The log must open and
// replay exactly as before, and a retried truncation must succeed.
func TestTruncateCrashLeftoverTemp(t *testing.T) {
	path, _, payloads := writeSample(t, 6)
	stray := filepath.Join(filepath.Dir(path), "wal.tmp-crashed")
	if err := os.WriteFile(stray, []byte("half-written suffix garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	lg, err := Open(path, 0, 2)
	if err != nil {
		t.Fatalf("Open with stray temp: %v", err)
	}
	defer lg.Close()
	recs := tailAll(t, lg, 0)
	if len(recs) != len(payloads) {
		t.Fatalf("replayed %d records with stray temp present, want %d", len(recs), len(payloads))
	}

	// The interrupted truncation retries cleanly.
	if err := lg.TruncateBelow(3); err != nil {
		t.Fatalf("TruncateBelow after crash: %v", err)
	}
	if lg.BaseGen() != 3 || lg.Head() != 6 {
		t.Fatalf("after retried truncation: base %d head %d, want 3/6", lg.BaseGen(), lg.Head())
	}
	recs = tailAll(t, lg, 3)
	if len(recs) != 3 {
		t.Fatalf("suffix has %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if string(rec.Payload) != string(payloads[3+i]) {
			t.Fatalf("suffix record %d payload diverges", i)
		}
	}
}

func flipBit(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
