package ontology

import (
	"fmt"
	"sync"
)

// DefaultRetention is the number of snapshot generations a Store keeps when
// the caller does not choose one.
const DefaultRetention = 4

// Generation is one retained snapshot version.
type Generation struct {
	Gen   uint64
	Snap  *Snapshot
	Nodes int
	Edges int
}

// Store is a versioned snapshot store: a bounded history of immutable
// ontology generations with monotonically increasing generation numbers.
// The serving tier pushes every published snapshot (initial load, ingest)
// into the store, which mints the serving generation and backs the
// retained-generation list of /v1/stats. Retention is bounded: pushing
// beyond the configured depth evicts the oldest generation (snapshots are
// immutable, so eviction is just dropping a reference).
//
// Generation numbers are never reused, so "generation N" always denotes
// the same snapshot for the lifetime of the store.
type Store struct {
	mu        sync.Mutex
	gens      []Generation // oldest .. newest
	retention int
	nextGen   uint64
}

// NewStore returns an empty store retaining up to retention generations
// (<= 0 means DefaultRetention).
func NewStore(retention int) *Store {
	if retention <= 0 {
		retention = DefaultRetention
	}
	return &Store{retention: retention}
}

// Push records snap as the new current generation and returns its
// generation number, evicting the oldest retained generation when the
// history exceeds the retention bound.
func (st *Store) Push(snap *Snapshot) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.nextGen++
	st.gens = append(st.gens, Generation{
		Gen: st.nextGen, Snap: snap,
		Nodes: snap.NodeCount(), Edges: snap.EdgeCount(),
	})
	if len(st.gens) > st.retention {
		st.gens = append(st.gens[:0:0], st.gens[len(st.gens)-st.retention:]...)
	}
	return st.nextGen
}

// SeedGeneration pre-positions an EMPTY store's generation counter so
// the next Push mints lastGen+1. A replica hydrating a checkpoint uses
// this to resume the exact serving-generation sequence a full replay
// would have produced: generation numbers are part of the replicated
// contract (X-Giant-Generation, cache keys), so a checkpoint boot must
// not restart them at 1.
func (st *Store) SeedGeneration(lastGen uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.gens) != 0 || st.nextGen != 0 {
		return fmt.Errorf("ontology: SeedGeneration on a store already at generation %d", st.nextGen)
	}
	st.nextGen = lastGen
	return nil
}

// Current returns the newest generation, or ok=false on an empty store.
func (st *Store) Current() (Generation, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.gens) == 0 {
		return Generation{}, false
	}
	return st.gens[len(st.gens)-1], true
}

// Get returns the snapshot of a specific retained generation.
func (st *Store) Get(gen uint64) (*Snapshot, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range st.gens {
		if st.gens[i].Gen == gen {
			return st.gens[i].Snap, true
		}
	}
	return nil, false
}

// Len returns the number of retained generations.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.gens)
}

// Generations lists the retained generations, oldest first, without their
// snapshots (summary view for stats endpoints).
func (st *Store) Generations() []Generation {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Generation, len(st.gens))
	copy(out, st.gens)
	for i := range out {
		out[i].Snap = nil
	}
	return out
}
