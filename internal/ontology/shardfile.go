package ontology

// ShardProjection is the boot artifact of a per-shard serving process: one
// shard's self-contained Snapshot plus the routing identity (shard index,
// shard count, home-node prefix length) and the local→union node-ID table
// that lets the shard render responses in the composed view's ID space. A
// projection round-trips through GIANTBIN (SaveBinaryFile / LoadShardInput),
// so the offline tier can export K shard files and K independent giantd
// processes can each boot from exactly one of them — no process ever needs
// the union. A per-shard process can also derive its projection at boot
// from a GIANTBIN snapshot file (LoadShardInput again).
//
// Layout invariants (established by Project and re-validated on load):
//
//   - Snap.nodes[:HomeCount] are the shard's home nodes in union ID order;
//     the rest are ghost copies of remote endpoints.
//   - UnionIDs[local] is the union node ID the local node resolves to via
//     the union phrase index — the same remap scatter-gather Search uses.
//     Both segments, UnionIDs[:HomeCount] and UnionIDs[HomeCount:], are
//     strictly ascending, which is what LocalOf searches.
//   - Every union edge is "owned" by exactly one shard: the home shard of
//     its source node. Summing owned-edge counts across shards therefore
//     reproduces the union edge count even though cross-shard edges are
//     stored on both endpoint shards.

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// ShardProjection bundles one shard's snapshot with its routing identity.
// Fields are read-only after construction; use Project, Rebase or
// LoadShardInput to build one with its indexes populated.
type ShardProjection struct {
	Snap      *Snapshot
	Shard     int
	NumShards int
	// HomeCount is the length of the home-node prefix of Snap's node list;
	// nodes at local ID >= HomeCount are ghosts.
	HomeCount int
	// UnionIDs maps local node IDs to union node IDs (-1 when the union
	// held no resolvable key, which a well-formed projection never has).
	UnionIDs []NodeID

	// grams is the lazily built term-gram index over the home-node prefix —
	// the shard's term-routing surface (TermStats). The binary decode path
	// may pre-populate it from the persisted section; a derived projection
	// computes it, deterministically yielding identical bytes. Rebase
	// shares it, since it depends only on the home nodes.
	grams *homeGrams
}

// homeGrams holds a projection's home-prefix term-gram index, built once.
type homeGrams struct {
	once sync.Once
	g    *TermGrams
}

// validate checks the invariants of a loaded projection: its identity,
// its home count, and a union-ID table whose home and ghost segments are
// each strictly ascending and hold no -1.
func (p *ShardProjection) validate() error {
	if p.NumShards < 1 {
		return fmt.Errorf("ontology: shard projection has %d shards", p.NumShards)
	}
	if p.Shard < 0 || p.Shard >= p.NumShards {
		return fmt.Errorf("ontology: shard index %d out of range for %d shards", p.Shard, p.NumShards)
	}
	if p.HomeCount < 0 || p.HomeCount > p.Snap.Len() {
		return fmt.Errorf("ontology: home count %d out of range for %d nodes", p.HomeCount, p.Snap.Len())
	}
	if len(p.UnionIDs) != p.Snap.Len() {
		return fmt.Errorf("ontology: %d union IDs for %d nodes", len(p.UnionIDs), p.Snap.Len())
	}
	for local, uid := range p.UnionIDs {
		if uid < 0 || local != 0 && local != p.HomeCount && uid <= p.UnionIDs[local-1] {
			return fmt.Errorf("ontology: union ID %d of local node %d breaks its ascending segment", uid, local)
		}
	}
	return nil
}

// IsHome reports whether the local node ID is a home node (not a ghost).
func (p *ShardProjection) IsHome(local NodeID) bool {
	return local >= 0 && int(local) < p.HomeCount
}

// UnionID maps a local node ID to its union node ID.
func (p *ShardProjection) UnionID(local NodeID) NodeID {
	if int(local) < 0 || int(local) >= len(p.UnionIDs) {
		return -1
	}
	return p.UnionIDs[local]
}

// LocalOf maps a union node ID back to the local node ID, ok=false when
// this shard's projection holds no copy of that node: one binary search in
// each ascending segment of UnionIDs.
func (p *ShardProjection) LocalOf(union NodeID) (NodeID, bool) {
	if i, ok := slices.BinarySearch(p.UnionIDs[:p.HomeCount], union); ok {
		return NodeID(i), true
	}
	if i, ok := slices.BinarySearch(p.UnionIDs[p.HomeCount:], union); ok {
		return NodeID(p.HomeCount + i), true
	}
	return -1, false
}

// SearchHome is the per-shard half of scatter-gather search: a substring
// scan over the home-node prefix only (ghosts are scanned by their own home
// shard), early-exiting at limit. Hit IDs are local; callers render them
// through UnionID. Merging every shard's SearchHome output in union-ID
// order reproduces Snapshot.Search over the union exactly. The home-prefix
// term-gram index short-circuits needles no home node can contain.
func (p *ShardProjection) SearchHome(needle string, limit int) []Node {
	needle = strings.ToLower(needle)
	if needle == "" {
		return nil
	}
	if !p.TermGrams().MayContain(needle) {
		return nil
	}
	return searchNodes(p.Snap.nodes[:p.HomeCount], needle, limit)
}

// TermGrams returns the term-gram index over the home-node prefix,
// building it on first use (safe under concurrent readers). Ghosts are
// excluded: they are scanned — and therefore routed — by their own home
// shard.
func (p *ShardProjection) TermGrams() *TermGrams {
	b := p.grams
	b.once.Do(func() {
		if b.g == nil {
			b.g = BuildTermGrams(p.Snap.nodes[:p.HomeCount])
		}
	})
	return b.g
}

// TermStats packages the shard's term-routing surface for /v1/stats: a
// router decodes each shard's grams and consults only the shards whose
// index may contain the query. Deterministic in the home-node contents.
func (p *ShardProjection) TermStats() TermStats {
	return TermStats{Grams: p.TermGrams().Encode()}
}

// HomeStats summarizes the shard's owned slice of the union: home nodes by
// type and owned edges (source homed here) by type. Summing HomeStats
// across all shards reproduces the union's ComputeStats.
func (p *ShardProjection) HomeStats() Stats {
	s := Stats{NodesByType: map[string]int{}, EdgesByType: map[string]int{}}
	for i := 0; i < p.HomeCount; i++ {
		s.NodesByType[p.Snap.nodes[i].Type.String()]++
	}
	for i := range p.Snap.edges {
		if int(p.Snap.edges[i].Src) < p.HomeCount {
			s.EdgesByType[p.Snap.edges[i].Type.String()]++
		}
	}
	return s
}

// OwnedEdgeCount counts the edges this shard owns (source homed here); the
// sum across shards equals the union edge count.
func (p *ShardProjection) OwnedEdgeCount() int {
	n := 0
	for i := range p.Snap.edges {
		if int(p.Snap.edges[i].Src) < p.HomeCount {
			n++
		}
	}
	return n
}

// LoadShardInput resolves the -in artifact of a per-shard server. It reads
// the GIANTBIN file once and branches on its header kind: a shard
// projection file boots directly (its identity must match
// shard/numShards), while from a snapshot file only shard i's projection
// is derived (Project) — handy when only the union artifact is
// distributed. A file that fails to decode is an error whatever its kind,
// so a corrupt shard file is never reinterpreted as a union. JSON is
// refused with ErrBadMagic naming giantctl convert.
func LoadShardInput(path string, shard, numShards int) (*ShardProjection, error) {
	if shard < 0 || shard >= numShards {
		return nil, fmt.Errorf("ontology: shard index %d out of range for %d shards", shard, numShards)
	}
	data, err := readArtifact(path)
	if err != nil {
		return nil, err
	}
	snap, bf, err := decodeBinary(data)
	if err != nil {
		return nil, fmt.Errorf("ontology: load %s: %w", path, err)
	}
	if bf.kind == binKindShard {
		p, err := bf.shardProjection(snap)
		if err != nil {
			return nil, fmt.Errorf("ontology: load %s: %w", path, err)
		}
		if p.Shard != shard || p.NumShards != numShards {
			return nil, fmt.Errorf("ontology: %s holds shard %d/%d, want %d/%d", path, p.Shard, p.NumShards, shard, numShards)
		}
		return p, nil
	}
	return Project(snap, shard, numShards)
}
