package ontology

// GIANTBIN is the binary snapshot and shard container: an mmap-friendly
// columnar serialization of a Snapshot or ShardProjection that a serving
// process can load in milliseconds with near-zero allocation, versus the
// parse time and heap churn of the JSON debug/interchange format.
//
// Layout (all integers little-endian):
//
//	header (64 bytes)
//	  0   magic "GIANTBIN" (8 bytes)
//	  8   format version  (uint32, currently 1)
//	  12  kind            (uint32: 1 snapshot, 2 shard projection)
//	  16  shard index i   (int32, kind 2 only)
//	  20  shard count k   (int32, kind 2 only)
//	  24  home-node count (uint64, kind 2 only)
//	  32  generation      (uint64, 0 unless stamped by EncodeSnapshotBinary)
//	  40  node count      (uint64)
//	  48  edge count      (uint64)
//	  56  section count   (uint32)
//	  60  header CRC32C   (over bytes [0,60))
//	section table (32 bytes per entry, immediately after the header)
//	  id uint32 · reserved uint32 · offset uint64 · length uint64 ·
//	  CRC32C uint32 · reserved uint32
//	sections (each starting at a 64-byte-aligned file offset)
//
// Sections are flat columns: a string arena plus an offsets column for
// each string attribute (phrases, aliases, triggers, locations), typed
// numeric columns for the scalar node attributes, the edge list as
// src/dst/type/weight arrays, the precomputed CSR adjacency (row offsets
// and grouped edge indices for both directions), and — for shard files —
// the local→union node-ID table. Every numeric column is 64-byte aligned,
// so a loader may reinterpret the backing bytes in place (the decoder
// below does exactly that on little-endian hosts, falling back to a copy
// when the host or the buffer alignment forbids it); the same property
// makes the file directly mmap-able, letting K per-shard processes on one
// host share page cache.
//
// Corrupt inputs are rejected with typed errors — ErrBadMagic,
// ErrTruncated, ErrChecksum, ErrFormatVersion, ErrCorrupt — and never
// panic: every offset table, edge endpoint and CSR index is validated
// before the snapshot is handed to the serving tier.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"
)

// BinaryMagic is the 8-byte tag every GIANTBIN artifact starts with.
const BinaryMagic = "GIANTBIN"

// BinaryVersion is the current GIANTBIN format version. Readers reject
// newer versions with ErrFormatVersion; the version is bumped on any
// incompatible layout change.
const BinaryVersion = 1

// Typed decode errors. Callers branch with errors.Is; every decode error
// wraps exactly one of these (plus ErrNotShardFile for kind mismatches on
// the shard loader).
var (
	// ErrBadMagic reports a file that does not start with the GIANTBIN
	// magic (auto-detecting loaders treat such files as JSON instead).
	ErrBadMagic = errors.New("ontology: not a GIANTBIN artifact (bad magic)")
	// ErrTruncated reports a GIANTBIN artifact shorter than its header and
	// section table promise — the signature of a partially written or
	// partially copied file.
	ErrTruncated = errors.New("ontology: truncated GIANTBIN artifact")
	// ErrChecksum reports a header or section whose CRC32C does not match
	// its bytes — bit rot or mid-write corruption.
	ErrChecksum = errors.New("ontology: GIANTBIN checksum mismatch")
	// ErrFormatVersion reports an artifact written by a newer format
	// version than this reader understands.
	ErrFormatVersion = errors.New("ontology: unsupported GIANTBIN format version")
	// ErrCorrupt reports an artifact whose checksums pass but whose
	// contents violate a structural invariant (non-monotonic string
	// offsets, out-of-range edge endpoints, inconsistent CSR).
	ErrCorrupt = errors.New("ontology: corrupt GIANTBIN artifact")
)

// container kinds (header field).
const (
	binKindSnapshot = 1
	binKindShard    = 2
)

// Section IDs. The set is fixed per version; unknown IDs are ignored so a
// minor additive change stays readable.
const (
	secNodeTypes     = 1  // []uint8, n
	secPhraseOffs    = 2  // []uint32, n+1
	secPhraseArena   = 3  // []byte
	secAliasIndex    = 4  // []uint32, n+1 (prefix counts into the alias table)
	secAliasOffs     = 5  // []uint32, totalAliases+1
	secAliasArena    = 6  // []byte
	secTriggerOffs   = 7  // []uint32, n+1
	secTriggerArena  = 8  // []byte
	secLocationOffs  = 9  // []uint32, n+1
	secLocationArena = 10 // []byte
	secNodeDays      = 11 // []int32, n
	secNodeFirstSeen = 12 // []int32, n
	secNodeLastSeen  = 13 // []int32, n
	secEdgeSrc       = 14 // []int32, e
	secEdgeDst       = 15 // []int32, e
	secEdgeTypes     = 16 // []uint8, e
	secEdgeWeights   = 17 // []float64, e
	secCSROutOff     = 18 // []int32, n+1
	secCSRInOff      = 19 // []int32, n+1
	secCSROutIdx     = 20 // []int32, e
	secCSRInIdx      = 21 // []int32, e
	secUnionIDs      = 22 // []int32, n (shard files only)
	secTermGrams     = 23 // TermGrams bitmaps (optional; home prefix for shards)
)

const (
	binHeaderSize = 64
	binTableEntry = 32
	binAlign      = 64
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether in-place column aliasing is sound on
// this machine; big-endian hosts take the decode-copy path.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// IsBinary reports whether data begins with the GIANTBIN magic — the
// auto-detection the file loaders use to pick a codec.
func IsBinary(data []byte) bool {
	return len(data) >= len(BinaryMagic) && string(data[:len(BinaryMagic)]) == BinaryMagic
}

// BinaryHeader is the decoded fixed header of a GIANTBIN artifact —
// everything an operator needs to identify a file without loading it.
type BinaryHeader struct {
	Version    uint32
	Kind       string // "snapshot" or "shard"
	Shard      int    // shard identity i/k (kind "shard" only)
	NumShards  int
	HomeCount  int
	Generation uint64 // stamped by EncodeSnapshotBinary; 0 otherwise
	Nodes      int
	Edges      int
}

// ReadBinaryHeader reads and validates the fixed header of the GIANTBIN
// file at path without loading its sections.
func ReadBinaryHeader(path string) (*BinaryHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var buf [binHeaderSize]byte
	if _, err := io.ReadFull(f, buf[:]); err != nil {
		if !IsBinary(buf[:]) {
			return nil, fmt.Errorf("%w: %s", ErrBadMagic, path)
		}
		return nil, fmt.Errorf("%w: %s: short header", ErrTruncated, path)
	}
	h, _, err := parseBinHeader(buf[:])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return h, nil
}

// parseBinHeader decodes and validates the 64-byte header, returning the
// section count alongside the public view.
func parseBinHeader(buf []byte) (*BinaryHeader, int, error) {
	if !IsBinary(buf) {
		return nil, 0, ErrBadMagic
	}
	if crc32.Checksum(buf[:60], crcTable) != binary.LittleEndian.Uint32(buf[60:64]) {
		return nil, 0, fmt.Errorf("%w: header", ErrChecksum)
	}
	version := binary.LittleEndian.Uint32(buf[8:12])
	if version != BinaryVersion {
		return nil, 0, fmt.Errorf("%w: file is version %d, reader understands %d", ErrFormatVersion, version, BinaryVersion)
	}
	kind := binary.LittleEndian.Uint32(buf[12:16])
	if kind != binKindSnapshot && kind != binKindShard {
		return nil, 0, fmt.Errorf("%w: unknown container kind %d", ErrCorrupt, kind)
	}
	h := &BinaryHeader{
		Version:    version,
		Shard:      int(int32(binary.LittleEndian.Uint32(buf[16:20]))),
		NumShards:  int(int32(binary.LittleEndian.Uint32(buf[20:24]))),
		HomeCount:  int(binary.LittleEndian.Uint64(buf[24:32])),
		Generation: binary.LittleEndian.Uint64(buf[32:40]),
		Nodes:      int(binary.LittleEndian.Uint64(buf[40:48])),
		Edges:      int(binary.LittleEndian.Uint64(buf[48:56])),
	}
	h.Kind = "snapshot"
	if kind == binKindShard {
		h.Kind = "shard"
	}
	if h.Nodes < 0 || h.Edges < 0 || h.HomeCount < 0 {
		return nil, 0, fmt.Errorf("%w: negative counts in header", ErrCorrupt)
	}
	return h, int(binary.LittleEndian.Uint32(buf[56:60])), nil
}

// ---------------------------------------------------------------------------
// Encoding

// binSection is one column pending write.
type binSection struct {
	id   uint32
	data []byte
}

func align64(x int) int { return (x + binAlign - 1) &^ (binAlign - 1) }

// u32col encodes a []uint32 column.
func u32col(vals []uint32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// i32col encodes an []int32 column.
func i32col(vals []int32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

// stringColumn builds the offsets+arena pair for n strings.
func stringColumn(n int, str func(i int) string) (offs []byte, arena []byte) {
	o := make([]uint32, n+1)
	total := 0
	for i := 0; i < n; i++ {
		total += len(str(i))
		o[i+1] = uint32(total)
	}
	arena = make([]byte, 0, total)
	for i := 0; i < n; i++ {
		arena = append(arena, str(i)...)
	}
	return u32col(o), arena
}

// encodeBinary serializes snap (and, when proj is non-nil, its shard
// identity and union-ID table) as a GIANTBIN artifact. gen is stamped
// into the header for replica-hydration accounting.
func encodeBinary(w io.Writer, snap *Snapshot, proj *ShardProjection, gen uint64) error {
	n, e := len(snap.nodes), len(snap.edges)

	var secs []binSection
	add := func(id uint32, data []byte) { secs = append(secs, binSection{id: id, data: data}) }

	// Node columns.
	types := make([]byte, n)
	days := make([]int32, n)
	first := make([]int32, n)
	last := make([]int32, n)
	totalAliases := 0
	for i := range snap.nodes {
		nd := &snap.nodes[i]
		types[i] = byte(nd.Type)
		days[i] = int32(nd.Day)
		first[i] = int32(nd.FirstSeenDay)
		last[i] = int32(nd.LastSeenDay)
		totalAliases += len(nd.Aliases)
	}
	add(secNodeTypes, types)
	phraseOffs, phraseArena := stringColumn(n, func(i int) string { return snap.nodes[i].Phrase })
	add(secPhraseOffs, phraseOffs)
	add(secPhraseArena, phraseArena)

	aliasIdx := make([]uint32, n+1)
	flatAliases := make([]string, 0, totalAliases)
	for i := range snap.nodes {
		flatAliases = append(flatAliases, snap.nodes[i].Aliases...)
		aliasIdx[i+1] = uint32(len(flatAliases))
	}
	add(secAliasIndex, u32col(aliasIdx))
	aliasOffs, aliasArena := stringColumn(len(flatAliases), func(i int) string { return flatAliases[i] })
	add(secAliasOffs, aliasOffs)
	add(secAliasArena, aliasArena)

	trigOffs, trigArena := stringColumn(n, func(i int) string { return snap.nodes[i].Trigger })
	add(secTriggerOffs, trigOffs)
	add(secTriggerArena, trigArena)
	locOffs, locArena := stringColumn(n, func(i int) string { return snap.nodes[i].Location })
	add(secLocationOffs, locOffs)
	add(secLocationArena, locArena)
	add(secNodeDays, i32col(days))
	add(secNodeFirstSeen, i32col(first))
	add(secNodeLastSeen, i32col(last))

	// Edge columns.
	src := make([]int32, e)
	dst := make([]int32, e)
	etypes := make([]byte, e)
	weights := make([]byte, 8*e)
	for i := range snap.edges {
		ed := &snap.edges[i]
		src[i] = int32(ed.Src)
		dst[i] = int32(ed.Dst)
		etypes[i] = byte(ed.Type)
		binary.LittleEndian.PutUint64(weights[8*i:], math.Float64bits(ed.Weight))
	}
	add(secEdgeSrc, i32col(src))
	add(secEdgeDst, i32col(dst))
	add(secEdgeTypes, etypes)
	add(secEdgeWeights, weights)

	// CSR adjacency, precomputed by the snapshot — serialized so a loader
	// skips the counting passes entirely.
	add(secCSROutOff, i32col(snap.outOff))
	add(secCSRInOff, i32col(snap.inOff))
	add(secCSROutIdx, i32col(snap.outIdx))
	add(secCSRInIdx, i32col(snap.inIdx))

	kind := uint32(binKindSnapshot)
	var shard, numShards int32
	var homeCount uint64
	if proj != nil {
		kind = binKindShard
		shard, numShards = int32(proj.Shard), int32(proj.NumShards)
		homeCount = uint64(proj.HomeCount)
		ids := make([]int32, len(proj.UnionIDs))
		for i, id := range proj.UnionIDs {
			ids[i] = int32(id)
		}
		add(secUnionIDs, i32col(ids))
		// Persist the home-prefix term-gram index so a booting shard skips
		// the rebuild. Deterministic in the home contents, so persisted and
		// recomputed bytes are identical (the shard-file equivalence pin).
		add(secTermGrams, proj.TermGrams().appendBytes(make([]byte, 0, termGramSize)))
	} else {
		add(secTermGrams, snap.TermGrams().appendBytes(make([]byte, 0, termGramSize)))
	}

	// Lay sections out at 64-byte-aligned offsets.
	header := make([]byte, binHeaderSize+binTableEntry*len(secs))
	copy(header, BinaryMagic)
	binary.LittleEndian.PutUint32(header[8:], BinaryVersion)
	binary.LittleEndian.PutUint32(header[12:], kind)
	binary.LittleEndian.PutUint32(header[16:], uint32(shard))
	binary.LittleEndian.PutUint32(header[20:], uint32(numShards))
	binary.LittleEndian.PutUint64(header[24:], homeCount)
	binary.LittleEndian.PutUint64(header[32:], gen)
	binary.LittleEndian.PutUint64(header[40:], uint64(n))
	binary.LittleEndian.PutUint64(header[48:], uint64(e))
	binary.LittleEndian.PutUint32(header[56:], uint32(len(secs)))
	binary.LittleEndian.PutUint32(header[60:], crc32.Checksum(header[:60], crcTable))

	off := align64(len(header))
	for i, s := range secs {
		ent := header[binHeaderSize+binTableEntry*i:]
		binary.LittleEndian.PutUint32(ent[0:], s.id)
		binary.LittleEndian.PutUint64(ent[8:], uint64(off))
		binary.LittleEndian.PutUint64(ent[16:], uint64(len(s.data)))
		binary.LittleEndian.PutUint32(ent[24:], crc32.Checksum(s.data, crcTable))
		off = align64(off + len(s.data))
	}

	if _, err := w.Write(header); err != nil {
		return err
	}
	var pad [binAlign]byte
	written := len(header)
	for _, s := range secs {
		if p := align64(written) - written; p > 0 {
			if _, err := w.Write(pad[:p]); err != nil {
				return err
			}
			written += p
		}
		if _, err := w.Write(s.data); err != nil {
			return err
		}
		written += len(s.data)
	}
	return nil
}

// WriteBinary serializes the snapshot as a GIANTBIN artifact.
func (s *Snapshot) WriteBinary(w io.Writer) error {
	return encodeBinary(w, s, nil, 0)
}

// EncodeSnapshotBinary serializes snap as a GIANTBIN artifact with gen
// stamped into the header. A fleet checkpoint embeds exactly this
// encoding, stamped with its log position, so a replica that hydrates it
// (DecodeSnapshotBinaryWithGen) knows where its log suffix starts.
func EncodeSnapshotBinary(w io.Writer, snap *Snapshot, gen uint64) error {
	return encodeBinary(w, snap, nil, gen)
}

// SaveBinaryFile writes the snapshot to path in the GIANTBIN format via
// the same crash-safe temp-then-rename dance SaveFile uses.
func (s *Snapshot) SaveBinaryFile(path string) error {
	return writeFileAtomic(path, s.WriteBinary)
}

// WriteBinary serializes the projection as a GIANTBIN shard artifact.
func (p *ShardProjection) WriteBinary(w io.Writer) error {
	return encodeBinary(w, p.Snap, p, 0)
}

// SaveBinaryFile writes the projection to path in the GIANTBIN format,
// crash-safely.
func (p *ShardProjection) SaveBinaryFile(path string) error {
	return writeFileAtomic(path, p.WriteBinary)
}

// ---------------------------------------------------------------------------
// Decoding

// binFile is a parsed, checksum-verified container.
type binFile struct {
	hdr  BinaryHeader
	kind uint32
	secs map[uint32][]byte
}

// parseBinFile validates the envelope: magic, version, header checksum,
// section table bounds and per-section CRC32C.
func parseBinFile(data []byte) (*binFile, error) {
	if !IsBinary(data) {
		return nil, ErrBadMagic
	}
	if len(data) < binHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(data), binHeaderSize)
	}
	hdr, nsec, err := parseBinHeader(data[:binHeaderSize])
	if err != nil {
		return nil, err
	}
	tableEnd := binHeaderSize + binTableEntry*nsec
	if nsec < 0 || len(data) < tableEnd {
		return nil, fmt.Errorf("%w: section table for %d sections needs %d bytes, file has %d", ErrTruncated, nsec, tableEnd, len(data))
	}
	bf := &binFile{hdr: *hdr, kind: binKindSnapshot, secs: make(map[uint32][]byte, nsec)}
	if hdr.Kind == "shard" {
		bf.kind = binKindShard
	}
	for i := 0; i < nsec; i++ {
		ent := data[binHeaderSize+binTableEntry*i:]
		id := binary.LittleEndian.Uint32(ent[0:])
		off := binary.LittleEndian.Uint64(ent[8:])
		length := binary.LittleEndian.Uint64(ent[16:])
		sum := binary.LittleEndian.Uint32(ent[24:])
		end := off + length
		if off < uint64(tableEnd) || end < off || end > uint64(len(data)) {
			return nil, fmt.Errorf("%w: section %d spans [%d,%d) of a %d-byte file", ErrTruncated, id, off, end, len(data))
		}
		sec := data[off:end:end]
		if crc32.Checksum(sec, crcTable) != sum {
			return nil, fmt.Errorf("%w: section %d", ErrChecksum, id)
		}
		bf.secs[id] = sec
	}
	return bf, nil
}

// section returns a required section, checking its exact byte length.
func (bf *binFile) section(id uint32, wantLen int) ([]byte, error) {
	sec, ok := bf.secs[id]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
	}
	if len(sec) != wantLen {
		return nil, fmt.Errorf("%w: section %d is %d bytes, want %d", ErrCorrupt, id, len(sec), wantLen)
	}
	return sec, nil
}

// termGrams decodes the optional persisted term-gram section; (nil, nil)
// when the artifact predates it, in which case the index is lazily
// recomputed (identical bytes — the index is deterministic).
func (bf *binFile) termGrams() (*TermGrams, error) {
	sec, ok := bf.secs[secTermGrams]
	if !ok {
		return nil, nil
	}
	g, err := termGramsFromBytes(sec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return g, nil
}

// arena returns a required variable-length section.
func (bf *binFile) arena(id uint32) ([]byte, error) {
	sec, ok := bf.secs[id]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
	}
	return sec, nil
}

// asU32 reinterprets a column as []uint32 — in place when the host is
// little-endian and the buffer happens to be 4-byte aligned (sections are
// 64-byte aligned in the file, so this is the common case), copying
// otherwise.
func asU32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

// asI32 is asU32 for signed columns.
func asI32(b []byte) []int32 {
	if len(b) == 0 {
		return []int32{}
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// validOffsets checks a string-offsets column: zero-based, monotonic, and
// ending exactly at the arena length.
func validOffsets(offs []uint32, arenaLen int, what string) error {
	if len(offs) == 0 || offs[0] != 0 {
		return fmt.Errorf("%w: %s offsets do not start at 0", ErrCorrupt, what)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return fmt.Errorf("%w: %s offsets decrease at %d", ErrCorrupt, what, i)
		}
	}
	if int(offs[len(offs)-1]) != arenaLen {
		return fmt.Errorf("%w: %s offsets end at %d, arena is %d bytes", ErrCorrupt, what, offs[len(offs)-1], arenaLen)
	}
	return nil
}

// arenaString returns string i of an offsets+arena column, aliasing the
// arena bytes (the file buffer is owned by the snapshot and never
// mutated) so no per-string copy is made.
func arenaString(arena []byte, offs []uint32, i int) string {
	lo, hi := offs[i], offs[i+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&arena[lo], int(hi-lo))
}

// stringCol fetches and validates one offsets+arena string column.
func (bf *binFile) stringCol(offID, arenaID uint32, count int, what string) ([]uint32, []byte, error) {
	offsRaw, err := bf.section(offID, 4*(count+1))
	if err != nil {
		return nil, nil, err
	}
	arena, err := bf.arena(arenaID)
	if err != nil {
		return nil, nil, err
	}
	offs := asU32(offsRaw)
	if err := validOffsets(offs, len(arena), what); err != nil {
		return nil, nil, err
	}
	return offs, arena, nil
}

// decodeBinary rebuilds the node and edge lists plus the CSR adjacency
// from a verified container. The returned snapshot aliases data — the
// caller must hand over ownership and never mutate the buffer again.
func decodeBinary(data []byte) (*Snapshot, *binFile, error) {
	bf, err := parseBinFile(data)
	if err != nil {
		return nil, nil, err
	}
	n, e := bf.hdr.Nodes, bf.hdr.Edges

	types, err := bf.section(secNodeTypes, n)
	if err != nil {
		return nil, nil, err
	}
	phraseOffs, phraseArena, err := bf.stringCol(secPhraseOffs, secPhraseArena, n, "phrase")
	if err != nil {
		return nil, nil, err
	}
	aliasIdxRaw, err := bf.section(secAliasIndex, 4*(n+1))
	if err != nil {
		return nil, nil, err
	}
	// The alias index is offsets into the alias table (counts of strings,
	// not bytes): monotonic from 0; its final entry is the table length.
	aliasIdx := asU32(aliasIdxRaw)
	if aliasIdx[0] != 0 {
		return nil, nil, fmt.Errorf("%w: alias index does not start at 0", ErrCorrupt)
	}
	for i := 1; i < len(aliasIdx); i++ {
		if aliasIdx[i] < aliasIdx[i-1] {
			return nil, nil, fmt.Errorf("%w: alias index decreases at %d", ErrCorrupt, i)
		}
	}
	totalAliases := int(aliasIdx[n])
	aliasOffs, aliasArena, err := bf.stringCol(secAliasOffs, secAliasArena, totalAliases, "alias")
	if err != nil {
		return nil, nil, err
	}
	trigOffs, trigArena, err := bf.stringCol(secTriggerOffs, secTriggerArena, n, "trigger")
	if err != nil {
		return nil, nil, err
	}
	locOffs, locArena, err := bf.stringCol(secLocationOffs, secLocationArena, n, "location")
	if err != nil {
		return nil, nil, err
	}
	daysRaw, err := bf.section(secNodeDays, 4*n)
	if err != nil {
		return nil, nil, err
	}
	firstRaw, err := bf.section(secNodeFirstSeen, 4*n)
	if err != nil {
		return nil, nil, err
	}
	lastRaw, err := bf.section(secNodeLastSeen, 4*n)
	if err != nil {
		return nil, nil, err
	}
	days, first, last := asI32(daysRaw), asI32(firstRaw), asI32(lastRaw)

	nodes := make([]Node, n)
	flatAliases := make([]string, totalAliases)
	for i := range flatAliases {
		flatAliases[i] = arenaString(aliasArena, aliasOffs, i)
	}
	for i := 0; i < n; i++ {
		nodes[i] = Node{
			ID:           NodeID(i),
			Type:         NodeType(types[i]),
			Phrase:       arenaString(phraseArena, phraseOffs, i),
			Trigger:      arenaString(trigArena, trigOffs, i),
			Location:     arenaString(locArena, locOffs, i),
			Day:          int(days[i]),
			FirstSeenDay: int(first[i]),
			LastSeenDay:  int(last[i]),
		}
		if lo, hi := aliasIdx[i], aliasIdx[i+1]; hi > lo {
			nodes[i].Aliases = flatAliases[lo:hi:hi]
		}
	}

	srcRaw, err := bf.section(secEdgeSrc, 4*e)
	if err != nil {
		return nil, nil, err
	}
	dstRaw, err := bf.section(secEdgeDst, 4*e)
	if err != nil {
		return nil, nil, err
	}
	etypes, err := bf.section(secEdgeTypes, e)
	if err != nil {
		return nil, nil, err
	}
	weightsRaw, err := bf.section(secEdgeWeights, 8*e)
	if err != nil {
		return nil, nil, err
	}
	src, dst := asI32(srcRaw), asI32(dstRaw)
	edges := make([]Edge, e)
	for i := 0; i < e; i++ {
		s, d := src[i], dst[i]
		if s < 0 || d < 0 || int(s) >= n || int(d) >= n {
			return nil, nil, fmt.Errorf("%w: edge %d endpoints out of range (%d,%d)", ErrCorrupt, i, s, d)
		}
		if s == d {
			return nil, nil, fmt.Errorf("%w: edge %d is a self edge on node %d", ErrCorrupt, i, s)
		}
		edges[i] = Edge{
			Src:    NodeID(s),
			Dst:    NodeID(d),
			Type:   EdgeType(etypes[i]),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(weightsRaw[8*i:])),
		}
	}

	outOffRaw, err := bf.section(secCSROutOff, 4*(n+1))
	if err != nil {
		return nil, nil, err
	}
	inOffRaw, err := bf.section(secCSRInOff, 4*(n+1))
	if err != nil {
		return nil, nil, err
	}
	outIdxRaw, err := bf.section(secCSROutIdx, 4*e)
	if err != nil {
		return nil, nil, err
	}
	inIdxRaw, err := bf.section(secCSRInIdx, 4*e)
	if err != nil {
		return nil, nil, err
	}
	outOff, inOff := asI32(outOffRaw), asI32(inOffRaw)
	outIdx, inIdx := asI32(outIdxRaw), asI32(inIdxRaw)
	if err := validCSR(outOff, outIdx, edges, n, true); err != nil {
		return nil, nil, err
	}
	if err := validCSR(inOff, inIdx, edges, n, false); err != nil {
		return nil, nil, err
	}

	snap := &Snapshot{nodes: nodes, edges: edges, outOff: outOff, inOff: inOff, outIdx: outIdx, inIdx: inIdx}
	snap.indexMaps()
	return snap, bf, nil
}

// validCSR checks one direction of the serialized adjacency: monotonic
// row offsets covering exactly the edge list, every edge index in range
// and grouped under its true endpoint — so a corrupt file can never make
// EachOut/EachIn walk out of bounds or visit a foreign vertex's edges.
func validCSR(off, idx []int32, edges []Edge, n int, out bool) error {
	dir := "in"
	if out {
		dir = "out"
	}
	if len(off) != n+1 || off[0] != 0 || int(off[n]) != len(edges) {
		return fmt.Errorf("%w: %s-CSR offsets malformed", ErrCorrupt, dir)
	}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return fmt.Errorf("%w: %s-CSR offsets decrease at node %d", ErrCorrupt, dir, v)
		}
		for _, ei := range idx[off[v]:off[v+1]] {
			if ei < 0 || int(ei) >= len(edges) {
				return fmt.Errorf("%w: %s-CSR edge index %d out of range", ErrCorrupt, dir, ei)
			}
			endpoint := edges[ei].Src
			if !out {
				endpoint = edges[ei].Dst
			}
			if int(endpoint) != v {
				return fmt.Errorf("%w: %s-CSR groups edge %d under node %d, endpoint is %d", ErrCorrupt, dir, ei, v, endpoint)
			}
		}
	}
	return nil
}

// DecodeSnapshotBinary decodes a GIANTBIN snapshot artifact. The snapshot
// aliases data (strings and numeric columns point into it); the caller
// must not mutate the buffer afterwards. Shard artifacts are rejected —
// adopting one shard's projection as the whole world would serve wrong
// answers.
func DecodeSnapshotBinary(data []byte) (*Snapshot, error) {
	snap, _, err := DecodeSnapshotBinaryWithGen(data)
	return snap, err
}

// DecodeSnapshotBinaryWithGen decodes a GIANTBIN snapshot artifact and
// surfaces the generation stamped into its header — the inverse of
// EncodeSnapshotBinary. The snapshot aliases data; the caller must not
// mutate the buffer afterwards.
func DecodeSnapshotBinaryWithGen(data []byte) (*Snapshot, uint64, error) {
	snap, bf, err := decodeBinary(data)
	if err != nil {
		return nil, 0, err
	}
	if bf.kind == binKindShard {
		return nil, 0, fmt.Errorf("ontology: this is a binary shard projection file (shard %d/%d); boot it with giantd -shard %d/%d or load it with LoadShardFile",
			bf.hdr.Shard, bf.hdr.NumShards, bf.hdr.Shard, bf.hdr.NumShards)
	}
	g, err := bf.termGrams()
	if err != nil {
		return nil, 0, err
	}
	snap.grams = g // nil when absent: TermGrams() recomputes lazily
	return snap, bf.hdr.Generation, nil
}

// DecodeShardBinary decodes a GIANTBIN shard artifact, re-validates the
// projection (validate) and re-indexes it as ShardedSnapshot.Projection
// indexes a fresh one (index). A
// snapshot artifact yields ErrNotShardFile so LoadShardInput can fall
// back to deriving the projection from the union.
func DecodeShardBinary(data []byte) (*ShardProjection, error) {
	snap, bf, err := decodeBinary(data)
	if err != nil {
		return nil, err
	}
	if bf.kind != binKindShard {
		return nil, fmt.Errorf("%w (binary snapshot artifact; use LoadSnapshotFile)", ErrNotShardFile)
	}
	idsRaw, err := bf.section(secUnionIDs, 4*bf.hdr.Nodes)
	if err != nil {
		return nil, err
	}
	ids32 := asI32(idsRaw)
	ids := make([]NodeID, len(ids32))
	for i, v := range ids32 {
		ids[i] = NodeID(v)
	}
	g, err := bf.termGrams()
	if err != nil {
		return nil, err
	}
	p := &ShardProjection{
		Snap:      snap,
		Shard:     bf.hdr.Shard,
		NumShards: bf.hdr.NumShards,
		HomeCount: bf.hdr.HomeCount,
		UnionIDs:  ids,
		// The persisted grams cover the home prefix only — the projection's
		// routing surface, never the embedded snapshot's (which spans ghosts
		// too and recomputes its own index on demand).
		grams: g,
	}
	if err := p.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	p.index()
	return p, nil
}
