package giant

// Tests for the host-state checkpoint seam (checkpoint.go): restoring a
// CheckpointState blob + ontology snapshot onto a fresh seed build must
// reproduce a continuously ingesting system exactly — same corpus, same
// click graph (proved by re-mining), same mined bookkeeping, same
// ontology bytes — and stay convergent through further ingests.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"giant/internal/delta"
)

// batchForDay slices the reference corpus's day-d click records into an
// ingest batch, as the incremental-equivalence tests do.
func batchForDay(full *System, day int) delta.Batch {
	batch := delta.Batch{Day: day}
	for _, r := range full.Log.Records {
		if r.Day == day {
			batch.Clicks = append(batch.Clicks, delta.Click{Query: r.Query, DocID: r.DocID, Clicks: r.Clicks, Day: r.Day})
		}
	}
	return batch
}

// assertSystemsEqual compares every field RestoreCheckpoint claims to
// reproduce. The click graph has no direct equality; re-mining every seed
// through it is the strongest observable proof the graphs match.
func assertSystemsEqual(t *testing.T, stage string, cont, restored *System) {
	t.Helper()
	if !reflect.DeepEqual(cont.Log.Docs, restored.Log.Docs) {
		t.Fatalf("%s: corpora diverge (%d vs %d docs)", stage, len(cont.Log.Docs), len(restored.Log.Docs))
	}
	if !reflect.DeepEqual(cont.Log.Records, restored.Log.Records) {
		t.Fatalf("%s: click streams diverge (%d vs %d records)", stage, len(cont.Log.Records), len(restored.Log.Records))
	}
	if !reflect.DeepEqual(cont.Mined, restored.Mined) {
		t.Fatalf("%s: mined sets diverge (%d vs %d)", stage, len(cont.Mined), len(restored.Mined))
	}
	if !reflect.DeepEqual(cont.ConceptContext(), restored.ConceptContext()) {
		t.Fatalf("%s: concept contexts diverge", stage)
	}
	var a, b bytes.Buffer
	if err := cont.Snapshot().WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := restored.Snapshot().WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: ontology snapshots are not byte-identical (%d vs %d bytes)", stage, a.Len(), b.Len())
	}
	contMined := cont.Miner.MineSeeds(cont.Click, cont.Click.Queries())
	restMined := restored.Miner.MineSeeds(restored.Click, restored.Click.Queries())
	if !reflect.DeepEqual(contMined, restMined) {
		t.Fatalf("%s: re-mining diverges — the click graphs differ", stage)
	}
}

func TestCheckpointRestoreEquivalence(t *testing.T) {
	cfg := equivalenceConfig()
	full := fullSystem(t, cfg)
	maxDay := maxRecordDay(full)
	splitDay := maxDay - 3
	if splitDay < 0 {
		splitDay = 0
	}
	mid := splitDay + (maxDay-splitDay+1)/2

	cont, err := BuildUpToDay(cfg, splitDay)
	if err != nil {
		t.Fatalf("BuildUpToDay: %v", err)
	}
	for day := splitDay + 1; day <= mid; day++ {
		if _, _, err := cont.Ingest(batchForDay(full, day)); err != nil {
			t.Fatalf("Ingest day %d: %v", day, err)
		}
	}

	state, err := cont.CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState: %v", err)
	}
	snap := cont.Snapshot()

	restored, err := BuildUpToDay(cfg, splitDay)
	if err != nil {
		t.Fatalf("BuildUpToDay (restore target): %v", err)
	}
	if err := restored.RestoreCheckpoint(snap, state); err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	assertSystemsEqual(t, "immediately after restore", cont, restored)

	// Both systems keep ingesting the tail; every generation must match.
	for day := mid + 1; day <= maxDay; day++ {
		s1, d1, err := cont.Ingest(batchForDay(full, day))
		if err != nil {
			t.Fatalf("continuous Ingest day %d: %v", day, err)
		}
		s2, d2, err := restored.Ingest(batchForDay(full, day))
		if err != nil {
			t.Fatalf("restored Ingest day %d: %v", day, err)
		}
		if !reflect.DeepEqual(d1, d2) {
			t.Fatalf("day %d: deltas diverge:\ncontinuous: %s\nrestored:   %s", day, d1.Summary(), d2.Summary())
		}
		var a, b bytes.Buffer
		if err := s1.WriteBinary(&a); err != nil {
			t.Fatal(err)
		}
		if err := s2.WriteBinary(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("day %d: ingested snapshots are not byte-identical", day)
		}
	}
	assertSystemsEqual(t, "after post-restore ingests", cont, restored)
}

// TestCheckpointRestoreRejects pins the all-or-nothing restore contract:
// every rejected restore leaves the target system untouched.
func TestCheckpointRestoreRejects(t *testing.T) {
	cfg := equivalenceConfig()
	full := fullSystem(t, cfg)
	maxDay := maxRecordDay(full)
	splitDay := maxDay - 2
	if splitDay < 0 {
		splitDay = 0
	}

	donor, err := BuildUpToDay(cfg, splitDay)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := donor.Ingest(batchForDay(full, splitDay+1)); err != nil {
		t.Fatal(err)
	}
	state, err := donor.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	snap := donor.Snapshot()

	fresh := func() *System {
		sys, err := BuildUpToDay(cfg, splitDay)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	assertUntouched := func(sys *System, nDocs, nRecs int) {
		t.Helper()
		if len(sys.Log.Docs) != nDocs || len(sys.Log.Records) != nRecs {
			t.Fatalf("rejected restore mutated the system: %d docs/%d records, want %d/%d",
				len(sys.Log.Docs), len(sys.Log.Records), nDocs, nRecs)
		}
	}

	t.Run("garbage state blob", func(t *testing.T) {
		sys := fresh()
		nd, nr := len(sys.Log.Docs), len(sys.Log.Records)
		if err := sys.RestoreCheckpoint(snap, []byte("{nope")); err == nil {
			t.Fatal("restore accepted a garbage state blob")
		}
		assertUntouched(sys, nd, nr)
	})

	t.Run("not a fresh build", func(t *testing.T) {
		sys := fresh()
		if _, _, err := sys.Ingest(batchForDay(full, splitDay+1)); err != nil {
			t.Fatal(err)
		}
		if err := sys.RestoreCheckpoint(snap, state); err == nil {
			t.Fatal("restore accepted a system that had already ingested")
		}
	})

	t.Run("baseline mismatch", func(t *testing.T) {
		sys := fresh()
		nd, nr := len(sys.Log.Docs), len(sys.Log.Records)
		bad := bytes.Replace(state,
			[]byte(fmt.Sprintf(`"seed_recs":%d`, sys.seedRecs)),
			[]byte(fmt.Sprintf(`"seed_recs":%d`, sys.seedRecs+1)), 1)
		if bytes.Equal(bad, state) {
			t.Fatal("test setup: seed_recs marker not found in state blob")
		}
		if err := sys.RestoreCheckpoint(snap, bad); err == nil {
			t.Fatal("restore accepted a mismatched seed baseline")
		}
		assertUntouched(sys, nd, nr)
	})

	t.Run("dangling record reference", func(t *testing.T) {
		sys := fresh()
		nd, nr := len(sys.Log.Docs), len(sys.Log.Records)
		bad := bytes.Replace(state, []byte(`"DocID":`), []byte(`"DocID":999`), 1)
		if bytes.Equal(bad, state) {
			t.Skip("no suffix records in this configuration")
		}
		if err := sys.RestoreCheckpoint(snap, bad); err == nil {
			t.Fatal("restore accepted a record referencing an unknown doc")
		}
		assertUntouched(sys, nd, nr)
	})
}

// TestSnapshotAdoptedAfterBuildAndRestore pins that the system's read side
// is one adopted snapshot: right after Build and right after
// RestoreCheckpoint, repeated Snapshot calls return the same pointer
// instead of copying and re-indexing the world each time.
func TestSnapshotAdoptedAfterBuildAndRestore(t *testing.T) {
	built := builtSystem(t)
	snap := built.Snapshot()
	if built.Snapshot() != snap {
		t.Fatal("two Snapshot calls after Build returned different snapshots")
	}
	state, err := built.CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState: %v", err)
	}
	restored, err := Build(TinyConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := restored.RestoreCheckpoint(snap, state); err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	if a, b := restored.Snapshot(), restored.Snapshot(); a != b || a != snap {
		t.Fatal("Snapshot calls after RestoreCheckpoint did not return the restored snapshot")
	}
}
