package ontology

// ShardProjection is the boot artifact of a per-shard serving process: one
// shard's self-contained Snapshot plus the routing identity (shard index,
// shard count, home-node prefix length) and the local→union node-ID table
// that lets the shard render responses in the composed view's ID space. A
// projection round-trips through GIANTBIN (SaveBinaryFile / LoadShardFile),
// so the offline tier can export K shard files and K independent giantd
// processes can each boot from exactly one of them — no process ever needs
// the union. A per-shard process can also derive its projection at boot
// from a whole-ontology file (LoadShardInput).
//
// Layout invariants (established by ShardedSnapshot.Projection and
// re-validated on load):
//
//   - Snap.nodes[:HomeCount] are the shard's home nodes in union ID order;
//     the rest are ghost copies of remote endpoints.
//   - UnionIDs[local] is the union node ID the local node resolves to via
//     the union phrase index — the same remap scatter-gather Search uses.
//   - Every union edge is "owned" by exactly one shard: the home shard of
//     its source node. Summing owned-edge counts across shards therefore
//     reproduces the union edge count even though cross-shard edges are
//     stored on both endpoint shards.

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
)

// ErrNotShardFile reports that a file is not a GIANTBIN shard projection —
// i.e. it is (at most) a plain ontology artifact. LoadShardInput falls
// back to the plain loader only on this error; a file that CLAIMS a shard
// identity but fails validation is corrupt and must surface as such, never
// silently re-interpreted.
var ErrNotShardFile = errors.New("ontology: not a shard projection file")

// ShardProjection bundles one shard's snapshot with its routing identity.
// Fields are read-only after construction; use ShardedSnapshot.Projection
// or LoadShardFile to build one with its indexes populated.
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

	byUnion map[NodeID]NodeID // union ID -> local ID

	// grams is the lazily built term-gram index over the home-node prefix —
	// the shard's term-routing surface (TermStats). The binary decode path
	// may pre-populate it from the persisted section; a derived projection
	// computes it, deterministically yielding identical bytes.
	gramsOnce sync.Once
	grams     *TermGrams
}

// index builds the reverse union→local table; called once at construction.
func (p *ShardProjection) index() {
	p.byUnion = make(map[NodeID]NodeID, len(p.UnionIDs))
	for local, uid := range p.UnionIDs {
		if uid < 0 {
			continue
		}
		if _, dup := p.byUnion[uid]; !dup {
			p.byUnion[uid] = NodeID(local)
		}
	}
}

// validate checks the projection invariants shared by the derive and load
// paths.
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
// this shard's projection holds no copy of that node.
func (p *ShardProjection) LocalOf(union NodeID) (NodeID, bool) {
	local, ok := p.byUnion[union]
	return local, ok
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
	p.gramsOnce.Do(func() {
		if p.grams == nil {
			p.grams = BuildTermGrams(p.Snap.nodes[:p.HomeCount])
		}
	})
	return p.grams
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

// LoadShardFile reads a GIANTBIN shard projection from the file at path.
// Any other file — a binary snapshot (union) artifact or a JSON ontology —
// yields ErrNotShardFile, so LoadShardInput's derive fallback works for
// both union formats.
func LoadShardFile(path string) (*ShardProjection, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !IsBinary(data) {
		return nil, fmt.Errorf("%w (not GIANTBIN; use LoadSnapshotFile for plain ontology files)", ErrNotShardFile)
	}
	return DecodeShardBinary(data)
}

// LoadShardInput resolves the -in artifact of a per-shard server: a shard
// projection file boots directly (its identity must match shard/numShards),
// while a plain ontology file is partitioned on the fly and shard i's
// projection derived — handy when only the union artifact is distributed.
func LoadShardInput(path string, shard, numShards int) (*ShardProjection, error) {
	p, err := LoadShardFile(path)
	if err == nil {
		if p.Shard != shard || p.NumShards != numShards {
			return nil, fmt.Errorf("ontology: %s holds shard %d/%d, want %d/%d", path, p.Shard, p.NumShards, shard, numShards)
		}
		return p, nil
	}
	if !errors.Is(err, ErrNotShardFile) {
		// The file claims to be (or fails to even parse as) a shard
		// projection: surface that, don't reinterpret a corrupt artifact
		// as a plain ontology and silently serve a wrong world.
		return nil, fmt.Errorf("ontology: load %s: %w", path, err)
	}
	if shard < 0 || shard >= numShards {
		return nil, fmt.Errorf("ontology: shard index %d out of range for %d shards", shard, numShards)
	}
	snap, err := LoadSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	ss, err := ShardSnapshot(snap, numShards)
	if err != nil {
		return nil, err
	}
	return ss.Projection(shard), nil
}
