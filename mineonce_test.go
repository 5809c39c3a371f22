package giant

// Mine-once pins: the replicas of a fleet that share one log directory mine
// each logged batch once — the first to reach a record mines it and
// publishes the outcome (wal.Outcome), the rest apply it — and every
// replica still reaches the bytes of a replica that mined every record
// itself. An outcome that is corrupt, foreign or mined on another baseline
// or from other seeds is ignored: the replica mines the record itself.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"giant/internal/delta"
	"giant/internal/synth"
	"giant/internal/wal"
)

const mineOnceSplitDay = 4

// mineOnceConfig is a 2-shard tiny fleet with lighter training: these tests
// pin who mines what, not model quality, and build one system per replica.
func mineOnceConfig() Config {
	cfg := TinyConfig()
	cfg.Shards = 2
	cfg.GCTSP.Epochs = 1
	cfg.TrainConcepts, cfg.TrainEvents = 12, 12
	return cfg
}

// mineOnceLog appends the click records of the days after the split, each
// day cut into 8 seeded slices, plus one invalid batch, to a fresh fleet log
// in dir, and returns the records as replicas read them.
func mineOnceLog(t *testing.T, cfg Config, dir string, days int) []wal.Record {
	t.Helper()
	full := synth.GenWorld(cfg.World).GenerateLog(cfg.Log)
	rng := rand.New(rand.NewSource(41))
	var batches []delta.Batch
	for day := mineOnceSplitDay + 1; day <= mineOnceSplitDay+days; day++ {
		var clicks []delta.Click
		for _, r := range full.Records {
			if r.Day == day {
				clicks = append(clicks, delta.Click{Query: r.Query, DocID: r.DocID, Clicks: r.Clicks, Day: r.Day})
			}
		}
		rng.Shuffle(len(clicks), func(i, j int) { clicks[i], clicks[j] = clicks[j], clicks[i] })
		for s := 0; s < 8; s++ {
			batches = append(batches, delta.Batch{Day: day, Clicks: clicks[s*len(clicks)/8 : (s+1)*len(clicks)/8]})
		}
		if day == mineOnceSplitDay+1 {
			batches = append(batches, delta.Batch{Day: day, Clicks: []delta.Click{{Query: "no such doc", DocID: 1 << 20, Clicks: 1}}})
		}
	}
	lg, err := wal.Create(wal.LogPath(dir), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	recs := make([]wal.Record, len(batches))
	for i, b := range batches {
		payload, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := lg.Append(b.Day, payload)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = wal.Record{Gen: gen, Day: b.Day, Payload: payload}
	}
	return recs
}

// mineOnceReplica is one replica's host: its own system, and the log
// directory whose outcomes it shares (none for a reference replica, which
// mines every record itself).
type mineOnceReplica struct {
	sys *System
	dir string
}

func buildReplica(t *testing.T, cfg Config, dir string) *mineOnceReplica {
	t.Helper()
	sys, err := BuildUpToDay(cfg, mineOnceSplitDay)
	if err != nil {
		t.Fatal(err)
	}
	return &mineOnceReplica{sys: sys, dir: dir}
}

// apply feeds record rec to the replica as its follower would and reports
// whether the replica ran the miner and the apply error, if any.
func (r *mineOnceReplica) apply(rec wal.Record) (mined bool, err error) {
	var b delta.Batch
	if err := json.Unmarshal(rec.Payload, &b); err != nil {
		return false, err
	}
	var share *wal.Outcome
	if r.dir != "" {
		share = &wal.Outcome{Dir: r.dir, Gen: rec.Gen, Payload: rec.Payload}
	}
	reused, remined := r.sys.Miner.MemoStats()
	_, _, _, err = r.sys.IngestSharded(b, share)
	reused2, remined2 := r.sys.Miner.MemoStats()
	return reused2+remined2 != reused+remined, err
}

// state returns the replica's union GIANTBIN bytes, the bytes of its
// projection of shard and its CheckpointState bytes.
func (r *mineOnceReplica) state(t *testing.T, shard int) [3][]byte {
	t.Helper()
	var union, proj bytes.Buffer
	if err := r.sys.Snapshot().WriteBinary(&union); err != nil {
		t.Fatal(err)
	}
	p, err := r.sys.ShardProjection(shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBinary(&proj); err != nil {
		t.Fatal(err)
	}
	ck, err := r.sys.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	return [3][]byte{union.Bytes(), proj.Bytes(), ck}
}

func assertSameState(t *testing.T, what string, got, want [3][]byte) {
	t.Helper()
	for i, name := range []string{"union GIANTBIN", "shard projection", "CheckpointState"} {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: %s bytes differ from the replica that mined everything itself (%d vs %d bytes)", what, name, len(got[i]), len(want[i]))
		}
	}
}

// TestMineOnceAcrossReplicas: three replicas of a 2-shard fleet apply each
// record of a replayed day concurrently over one log directory. Exactly one
// of them runs the miner per record, and each equals, at every position, a
// replica that mined every record itself.
func TestMineOnceAcrossReplicas(t *testing.T) {
	cfg := mineOnceConfig()
	dir := t.TempDir()
	recs := mineOnceLog(t, cfg, dir, 1)
	shards := []int{0, 1, 0}
	reps := make([]*mineOnceReplica, len(shards))
	for i := range reps {
		reps[i] = buildReplica(t, cfg, dir)
	}
	ref := buildReplica(t, cfg, "")

	shipped := 0
	for _, rec := range recs {
		refMined, refErr := ref.apply(rec)
		want := [][3][]byte{ref.state(t, 0), ref.state(t, 1)}
		mined := make([]bool, len(reps))
		errs := make([]error, len(reps))
		var wg sync.WaitGroup
		for i, r := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mined[i], errs[i] = r.apply(rec)
			}()
		}
		wg.Wait()
		miners := 0
		for i, r := range reps {
			if (errs[i] == nil) != (refErr == nil) {
				t.Fatalf("record %d: replica %d apply error %v, reference %v", rec.Gen, i, errs[i], refErr)
			}
			if mined[i] {
				miners++
			}
			assertSameState(t, fmt.Sprintf("record %d, replica %d", rec.Gen, i), r.state(t, shards[i]), want[shards[i]])
		}
		wantMiners := 0
		if refMined {
			wantMiners = 1
			shipped += len(reps) - 1
		}
		if miners != wantMiners {
			t.Fatalf("record %d: %d replicas ran the miner, want %d", rec.Gen, miners, wantMiners)
		}
		if _, err := os.Stat(wal.OutcomePath(dir, rec.Gen)); (err == nil) != (refErr == nil) {
			t.Fatalf("record %d (apply error %v): outcome file stat %v", rec.Gen, refErr, err)
		}
	}
	if shipped == 0 {
		t.Fatal("no record's outcome was shipped")
	}
}

// TestMinedOutcomeFallbacks: a replica offered a corrupt, foreign,
// other-baseline or other-seeds outcome, or a stale claim, mines the record
// itself at once and reaches the same bytes; offered the intact outcome it
// mines nothing.
func TestMinedOutcomeFallbacks(t *testing.T) {
	cfg := mineOnceConfig()
	goodDir, badDir := t.TempDir(), t.TempDir()
	recs := mineOnceLog(t, cfg, goodDir, 3)
	first := buildReplica(t, cfg, goodDir)
	rep := buildReplica(t, cfg, badDir)
	if err := os.MkdirAll(wal.OutcomeDir(badDir), 0o755); err != nil {
		t.Fatal(err)
	}

	reframe := func(rec wal.Record, edit func(*minedOutcome)) []byte {
		raw, err := os.ReadFile(wal.OutcomePath(goodDir, rec.Gen))
		if err != nil {
			t.Fatal(err)
		}
		body, err := wal.DecodeOutcome(raw, rec.Gen, rec.Payload)
		if err != nil {
			t.Fatal(err)
		}
		var out minedOutcome
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		edit(&out)
		body, err = json.Marshal(&out)
		if err != nil {
			t.Fatal(err)
		}
		return wal.EncodeOutcome(rec.Gen, rec.Payload, body)
	}
	corrupt := map[string]func(rec wal.Record, good []byte) []byte{
		"truncated": func(_ wal.Record, good []byte) []byte { return good[:len(good)/2] },
		"bit flip": func(_ wal.Record, good []byte) []byte {
			b := bytes.Clone(good)
			b[len(b)/3] ^= 0x04
			return b
		},
		"wrong magic": func(_ wal.Record, good []byte) []byte {
			return recrc(append([]byte("GIANTWAL"), good[8:]...))
		},
		"wrong version": func(_ wal.Record, good []byte) []byte {
			b := bytes.Clone(good)
			b[8]++
			return recrc(b)
		},
		"other position": func(rec wal.Record, good []byte) []byte {
			b, _ := wal.DecodeOutcome(good, rec.Gen, rec.Payload)
			return wal.EncodeOutcome(rec.Gen+1, rec.Payload, b)
		},
		"other payload": func(rec wal.Record, good []byte) []byte {
			b, _ := wal.DecodeOutcome(good, rec.Gen, rec.Payload)
			return wal.EncodeOutcome(rec.Gen, append(bytes.Clone(rec.Payload), ' '), b)
		},
		"other baseline": func(rec wal.Record, _ []byte) []byte {
			return reframe(rec, func(o *minedOutcome) { o.SeedRecs++ })
		},
		"other seeds": func(rec wal.Record, _ []byte) []byte {
			return reframe(rec, func(o *minedOutcome) { o.Seeds = append(o.Seeds, "one more seed") })
		},
		"stale claim": func(wal.Record, []byte) []byte { return nil },
	}
	// Every other record gets the next case; the rest the intact outcome.
	names := slices.Sorted(maps.Keys(corrupt))
	cases := 0
	for i, rec := range recs {
		firstMined, err := first.apply(rec)
		if err != nil {
			continue // the invalid batch: no outcome, nothing to corrupt
		}
		good, err := os.ReadFile(wal.OutcomePath(goodDir, rec.Gen))
		if err != nil {
			t.Fatal(err)
		}
		name := "intact"
		if i%2 == 1 {
			name = names[(i/2)%len(names)]
			cases++
		}
		path := wal.OutcomePath(badDir, rec.Gen)
		if name == "intact" {
			err = os.WriteFile(path, good, 0o644)
		} else if err = os.WriteFile(path, corrupt[name](rec, good), 0o644); err == nil && name == "stale claim" {
			old := time.Now().Add(-2 * wal.OutcomeWait)
			err = os.Chtimes(path, old, old)
		}
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		mined, err := rep.apply(rec)
		if err != nil {
			t.Fatalf("record %d (%s): %v", rec.Gen, name, err)
		}
		if el := time.Since(start); el > wal.OutcomeWait/2 {
			t.Fatalf("record %d (%s): the apply took %v; a refused outcome must cost no wait", rec.Gen, name, el)
		}
		if wantMined := firstMined && name != "intact"; mined != wantMined {
			t.Fatalf("record %d (%s): replica ran the miner = %v, want %v", rec.Gen, name, mined, wantMined)
		}
		assertSameState(t, fmt.Sprintf("record %d (%s)", rec.Gen, name), rep.state(t, 1), first.state(t, 1))
	}
	if cases < len(names) {
		t.Fatalf("only %d corrupt cases ran, want all %d", cases, len(names))
	}
}

// recrc recomputes an outcome's trailing CRC32C after a header edit, so
// the edited field is what the replica refuses.
func recrc(b []byte) []byte {
	end := len(b) - 4
	binary.LittleEndian.PutUint32(b[end:], crc32.Checksum(b[:end], crc32.MakeTable(crc32.Castagnoli)))
	return b
}
