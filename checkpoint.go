package giant

// Checkpointed host state. A replica that hydrates a checkpoint instead of
// replaying its whole delta log needs two artifacts: the ontology snapshot
// (a GIANTBIN blob, handled by internal/ontology) and everything the delta
// replay accumulated OUTSIDE the ontology — post-seed corpus documents,
// the post-seed click stream, the mined-attention bookkeeping and the
// concept-context map. CheckpointState serializes that second half;
// RestoreCheckpoint replays it onto a freshly built System.
//
// The seed build is deterministic (same Config => same world, corpus,
// trained models), so the blob carries only the suffix past the seed
// high-water marks captured at the end of BuildUpToDay. Click-graph state
// is not serialized at all: RestoreCheckpoint re-feeds the suffix records
// through Click.Add in their original log order, which reproduces the
// graph a continuous process would hold (Add is order-dependent but the
// order is preserved exactly).

import (
	"encoding/json"
	"fmt"

	"giant/internal/core"
	"giant/internal/ontology"
	"giant/internal/synth"
)

// checkpointState is the JSON schema of the opaque state blob stored in a
// wal.Checkpoint next to the GIANTBIN ontology snapshot.
type checkpointState struct {
	SeedDocs int                 `json:"seed_docs"`
	SeedRecs int                 `json:"seed_recs"`
	Docs     []synth.Doc         `json:"docs"`    // corpus suffix past SeedDocs
	Records  []synth.Record      `json:"records"` // click stream suffix past SeedRecs
	Mined    []core.Mined        `json:"mined"`   // full mined-attention set
	Context  map[string][]string `json:"context"` // full concept-context map
}

// CheckpointState serializes the system's post-seed delta state — the
// opaque blob half of a serve-tier checkpoint (the ontology snapshot
// travels separately; pair this with System.Snapshot taken under the same
// quiescence). The caller must ensure no Ingest runs concurrently if the
// blob and the snapshot must describe the same generation.
func (sys *System) CheckpointState() ([]byte, error) {
	sys.ingestMu.Lock()
	defer sys.ingestMu.Unlock()
	if sys.seedDocs > len(sys.Log.Docs) || sys.seedRecs > len(sys.Log.Records) {
		return nil, fmt.Errorf("giant: checkpoint: seed baseline (%d docs, %d records) exceeds current log (%d, %d)",
			sys.seedDocs, sys.seedRecs, len(sys.Log.Docs), len(sys.Log.Records))
	}
	st := checkpointState{
		SeedDocs: sys.seedDocs,
		SeedRecs: sys.seedRecs,
		Docs:     sys.Log.Docs[sys.seedDocs:],
		Records:  sys.Log.Records[sys.seedRecs:],
		Mined:    sys.Mined,
		Context:  sys.conceptContext,
	}
	return json.Marshal(&st)
}

// RestoreCheckpoint replays a CheckpointState blob plus its paired
// ontology snapshot onto this system, which must be a fresh build of the
// SAME Config (same seed baseline, nothing ingested yet). After it
// returns, the system is field-equivalent to one that built the seed and
// then ingested every batch the checkpoint covers: the corpus and click
// stream carry the suffix, the click graph has absorbed the suffix
// records in original order, Mined and the concept contexts are the
// checkpoint's, and the working ontology is the snapshot's generation.
func (sys *System) RestoreCheckpoint(snap *ontology.Snapshot, state []byte) error {
	sys.ingestMu.Lock()
	defer sys.ingestMu.Unlock()

	var st checkpointState
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("giant: restore checkpoint: decode state: %w", err)
	}
	if st.SeedDocs != sys.seedDocs || st.SeedRecs != sys.seedRecs {
		return fmt.Errorf("giant: restore checkpoint: seed baseline mismatch: checkpoint built on %d docs/%d records, this build has %d/%d (differing build Config?)",
			st.SeedDocs, st.SeedRecs, sys.seedDocs, sys.seedRecs)
	}
	if len(sys.Log.Docs) != sys.seedDocs || len(sys.Log.Records) != sys.seedRecs {
		return fmt.Errorf("giant: restore checkpoint: system already past the seed build (%d docs/%d records vs baseline %d/%d); restore requires a fresh build",
			len(sys.Log.Docs), len(sys.Log.Records), sys.seedDocs, sys.seedRecs)
	}

	// Validate the whole suffix before mutating anything, mirroring the
	// batch-ingest all-or-nothing rule: a corrupt blob must not leave the
	// corpus or the click graph half-restored.
	nDocs := sys.seedDocs + len(st.Docs)
	for i := range st.Docs {
		if st.Docs[i].ID != sys.seedDocs+i {
			return fmt.Errorf("giant: restore checkpoint: doc suffix is not contiguous: position %d has ID %d (want %d)",
				i, st.Docs[i].ID, sys.seedDocs+i)
		}
	}
	for i := range st.Records {
		if id := st.Records[i].DocID; id < 0 || id >= nDocs {
			return fmt.Errorf("giant: restore checkpoint: record %d references unknown doc %d (corpus has %d)", i, id, nDocs)
		}
	}

	sys.Log.Docs = append(sys.Log.Docs, st.Docs...)
	for _, r := range st.Records {
		sys.Click.Add(r.Query, r.DocID, sys.Log.Docs[r.DocID].Title, r.Clicks, r.Day)
		sys.Log.Records = append(sys.Log.Records, r)
	}
	sys.Ontology = ontology.FromSnapshot(snap)
	sys.Mined = st.Mined
	sys.knownMined = nil // rebuilt from the restored records by the next ingest
	sys.conceptContext = st.Context
	return nil
}
