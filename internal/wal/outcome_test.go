package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var (
	outcomePayload = []byte(`{"day":7,"clicks":[{"query":"best trail runners","doc":-1,"clicks":8}]}`)
	outcomeBody    = []byte(`{"seed_docs":3,"seed_recs":9,"seeds":["best trail runners"],"mined":[]}`)
)

const outcomeGen = 7

// reframe recomputes an outcome's trailing CRC after a header edit, so a
// case fails on the edited field rather than on the checksum.
func reframe(b []byte) []byte {
	end := len(b) - outcomeTrailSize
	binary.LittleEndian.PutUint32(b[end:], crc32.Checksum(b[:end], crcTable))
	return b
}

// outcomeCorruptions is the corruption matrix of one valid outcome:
// truncation at every byte, a bit flip at every byte, wrong magic, wrong
// version, a body length that lies, and intact outcomes of another
// position or another payload.
func outcomeCorruptions() map[string][]byte {
	valid := EncodeOutcome(outcomeGen, outcomePayload, outcomeBody)
	cases := map[string][]byte{}
	for n := 1; n < len(valid); n++ {
		cases[fmt.Sprintf("truncated to %d bytes", n)] = bytes.Clone(valid[:n])
	}
	for i := range valid {
		b := bytes.Clone(valid)
		b[i] ^= 0x10
		cases[fmt.Sprintf("bit flip at byte %d", i)] = b
	}
	magic := bytes.Clone(valid)
	copy(magic, "GIANTCKP")
	cases["wrong magic"] = reframe(magic)
	version := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(version[8:], OutcomeVersion+1)
	cases["wrong version"] = reframe(version)
	length := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(length[12:], 1<<31)
	cases["lying body length"] = reframe(length)
	cases["another position"] = EncodeOutcome(outcomeGen+1, outcomePayload, outcomeBody)
	cases["another payload"] = EncodeOutcome(outcomeGen, []byte(`{"day":7}`), outcomeBody)
	return cases
}

func TestOutcomeRoundTrip(t *testing.T) {
	o := &Outcome{Dir: t.TempDir(), Gen: outcomeGen, Payload: outcomePayload}
	body, claimed := o.Take()
	if body != nil || !claimed {
		t.Fatalf("first Take = (%q, %v), want the claim", body, claimed)
	}
	if err := o.Publish(outcomeBody); err != nil {
		t.Fatal(err)
	}
	body, claimed = o.Take()
	if !bytes.Equal(body, outcomeBody) || claimed {
		t.Fatalf("Take after Publish = (%q, %v), want the published body", body, claimed)
	}
	ents, err := os.ReadDir(OutcomeDir(o.Dir))
	if err != nil || len(ents) != 1 || ents[0].Name() != "7" {
		t.Fatalf("mined/ holds %v (%v), want only the outcome of record 7", ents, err)
	}
}

// TestOutcomeCorruptionMatrix: every corrupt or foreign outcome is refused
// by DecodeOutcome and makes Take hand the record back for mining at once.
func TestOutcomeCorruptionMatrix(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(OutcomeDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	o := &Outcome{Dir: dir, Gen: outcomeGen, Payload: outcomePayload}
	start := time.Now()
	for name, data := range outcomeCorruptions() {
		if body, err := DecodeOutcome(data, outcomeGen, outcomePayload); err == nil {
			t.Fatalf("%s: DecodeOutcome accepted it (body %q)", name, body)
		}
		if err := os.WriteFile(OutcomePath(dir, outcomeGen), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if body, claimed := o.Take(); body != nil || claimed {
			t.Fatalf("%s: Take = (%q, %v), want nothing", name, body, claimed)
		}
	}
	if el := time.Since(start); el > OutcomeWait {
		t.Fatalf("the matrix took %v: a corrupt outcome must cost no wait", el)
	}
	for name, want := range map[string]error{
		"truncated to 20 bytes": ErrTruncated,
		"bit flip at byte 60":   ErrChecksum,
		"wrong magic":           ErrBadMagic,
		"wrong version":         ErrFormatVersion,
		"lying body length":     ErrTruncated,
		"another position":      ErrForeignOutcome,
		"another payload":       ErrForeignOutcome,
	} {
		if _, err := DecodeOutcome(outcomeCorruptions()[name], outcomeGen, outcomePayload); !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}
}

// TestOutcomeOneClaimant: of replicas reaching one record together, exactly
// one mines it and every other one applies its outcome.
func TestOutcomeOneClaimant(t *testing.T) {
	o := &Outcome{Dir: t.TempDir(), Gen: outcomeGen, Payload: outcomePayload}
	path := OutcomePath(o.Dir, o.Gen)
	if won, err := o.claim(path); !won || err != nil {
		t.Fatalf("first claim = (%v, %v), want it won", won, err)
	}
	if won, err := o.claim(path); won || err != nil {
		t.Fatalf("second claim = (%v, %v), want it lost", won, err)
	}

	dir := t.TempDir()
	const replicas = 8
	var claims, applied int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &Outcome{Dir: dir, Gen: outcomeGen, Payload: outcomePayload}
			body, claimed := o.Take()
			if claimed {
				time.Sleep(20 * time.Millisecond) // mining
				if err := o.Publish(outcomeBody); err != nil {
					t.Error(err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if claimed {
				claims++
			}
			if bytes.Equal(body, outcomeBody) {
				applied++
			}
		}()
	}
	wg.Wait()
	if claims != 1 || applied != replicas-1 {
		t.Fatalf("%d replicas claimed and %d applied the outcome, want 1 and %d", claims, applied, replicas-1)
	}
}

// TestOutcomeStaleClaimCostsNoWait: a claim older than OutcomeWait with no
// outcome (its holder died) hands the record back at once.
func TestOutcomeStaleClaimCostsNoWait(t *testing.T) {
	o := &Outcome{Dir: t.TempDir(), Gen: outcomeGen, Payload: outcomePayload}
	if _, claimed := o.Take(); !claimed {
		t.Fatal("no claim on an empty directory")
	}
	old := time.Now().Add(-2 * OutcomeWait)
	if err := os.Chtimes(OutcomePath(o.Dir, o.Gen), old, old); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if body, claimed := o.Take(); body != nil || claimed {
		t.Fatalf("Take on a stale claim = (%q, %v), want nothing", body, claimed)
	}
	if el := time.Since(start); el > OutcomeWait/4 {
		t.Fatalf("Take waited %v on a stale claim", el)
	}
}

// TestOutcomeAbandonedClaimWaitIsBounded: a fresh claim whose holder never
// publishes costs at most OutcomeWait.
func TestOutcomeAbandonedClaimWaitIsBounded(t *testing.T) {
	o := &Outcome{Dir: t.TempDir(), Gen: outcomeGen, Payload: outcomePayload}
	if _, claimed := o.Take(); !claimed {
		t.Fatal("no claim on an empty directory")
	}
	start := time.Now()
	if body, claimed := o.Take(); body != nil || claimed {
		t.Fatalf("Take on an abandoned claim = (%q, %v), want nothing", body, claimed)
	}
	if el := time.Since(start); el < OutcomeWait/2 || el > OutcomeWait+time.Second {
		t.Fatalf("Take waited %v on a fresh abandoned claim, want about %v", el, OutcomeWait)
	}
}

// TestTruncateBelowPrunesOutcomes: after a log cut at C no claim, outcome
// or temp file of a record at or below C remains, and later ones stay. A
// cut that leaves the log as it is still sweeps outcomes written late.
func TestTruncateBelowPrunesOutcomes(t *testing.T) {
	path, _, payloads := writeSample(t, 10)
	dir := filepath.Dir(path)
	lg, err := Open(path, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	publish := func(g uint64) {
		t.Helper()
		o := &Outcome{Dir: dir, Gen: g, Payload: payloads[g-1]}
		if _, claimed := o.Take(); !claimed {
			t.Fatalf("record %d: no claim", g)
		}
		if g%3 != 0 { // every third record keeps a bare claim
			if err := o.Publish(outcomeBody); err != nil {
				t.Fatal(err)
			}
		}
	}
	for g := uint64(1); g <= 10; g++ {
		publish(g)
	}
	for _, name := range []string{"2.tmp-123", "9.tmp-456", "README"} {
		if err := os.WriteFile(filepath.Join(OutcomeDir(dir), name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	left := func() []string {
		ents, err := os.ReadDir(OutcomeDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	if err := lg.TruncateBelow(4); err != nil {
		t.Fatal(err)
	}
	want := []string{"10", "5", "6", "7", "8", "9", "9.tmp-456", "README"}
	if got := left(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after the cut at 4, mined/ holds %v, want %v", got, want)
	}
	publish(3) // a replica that was still applying record 3
	if err := lg.TruncateBelow(4); err != nil {
		t.Fatal(err)
	}
	if got := left(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after repeating the cut, mined/ holds %v, want %v", got, want)
	}
}

// FuzzOutcome: DecodeOutcome never panics, accepts exactly the bytes
// EncodeOutcome writes for this record (so no CRC-failing or foreign
// outcome), and returns the body in place rather than allocating from the
// length field; Take over the same bytes agrees with it.
func FuzzOutcome(f *testing.F) {
	f.Add(EncodeOutcome(outcomeGen, outcomePayload, outcomeBody))
	f.Add(EncodeOutcome(outcomeGen, outcomePayload, nil))
	for _, data := range outcomeCorruptions() {
		f.Add(data)
	}
	dir := f.TempDir()
	if err := os.MkdirAll(OutcomeDir(dir), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := DecodeOutcome(data, outcomeGen, outcomePayload)
		if err == nil {
			if !bytes.Equal(data, EncodeOutcome(outcomeGen, outcomePayload, body)) {
				t.Fatalf("accepted %x, which is not this record's outcome of its body", data)
			}
			if len(body) > 0 && &body[0] != &data[outcomeHeaderSize] {
				t.Fatal("the body was copied out of the outcome")
			}
		}
		if len(data) == 0 {
			return // an empty file is a claim, not an outcome
		}
		if err := os.WriteFile(OutcomePath(dir, outcomeGen), data, 0o644); err != nil {
			t.Fatal(err)
		}
		o := &Outcome{Dir: dir, Gen: outcomeGen, Payload: outcomePayload}
		got, claimed := o.Take()
		if claimed || !bytes.Equal(got, body) || (got == nil) != (err != nil) {
			t.Fatalf("Take = (%q, %v), DecodeOutcome = (%q, %v)", got, claimed, body, err)
		}
	})
}
