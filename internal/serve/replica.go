package serve

// Delta-log replicas: no server accepts direct writes, so a Follower
// tailing the fleet's one append-only wal.Log is the only way a per-shard
// server (NewShard) changes: each delta.Batch goes through ingestBatch,
// the replica's one apply path, which hands the host the batch and its log
// record. The fleet mines each record once: the first replica to reach it
// mines it and publishes the mined outcome beside the log (wal.Outcome),
// and every other replica of any shard applies that outcome instead of
// mining. Because delta mining is deterministic, every replica of a shard
// that has consumed the same log prefix serves the exact same projection
// at the exact same generation — the log position of the last batch that
// changed the shard — whichever replica mined what, which is what lets the
// router treat replicas as interchangeable for reads and ack an ingest at
// a quorum of apply confirmations.
//
// The replica's progress is observable three ways, all fed from one
// walState: the X-Giant-Wal-Gen header on every response, the
// wal_gen/replica/checkpoint_gen fields of /healthz, and GET /v1/wal —
// which can block (?wait=G&timeout_ms=) until generation G has been
// applied, the router's quorum-ack primitive.
//
// Checkpointing bounds catch-up: every FollowerOptions.CheckpointEvery
// applied generations the follower captures the host's full apply state
// (union snapshot + opaque host blob + every shard's generation),
// encodes it off the apply path, and publishes the fleet's GIANTCKP
// artifact beside the log. A restarting replica of any shard walks the
// recovery ladder — primary checkpoint, previous checkpoint, full replay
// (HydrateShard) — and then tails only the log suffix past the artifact
// it hydrated; the router is then free to truncate the log below the
// fleet-wide applied floor, bounded by the covered position of the
// published checkpoint.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"giant/internal/delta"
	"giant/internal/ontology"
	"giant/internal/wal"
)

// walState tracks a replica's position in the fleet's delta log. It is
// attached to the Server by NewFollower and advanced by Follower.Run;
// handlers only read it (or block on changed).
type walState struct {
	replica int // replica ordinal, for /healthz and log lines

	mu      sync.Mutex
	gen     uint64        // last consumed log generation
	ckpt    uint64        // log position covered by the last published checkpoint
	status  int           // HTTP-equivalent status of the last apply
	result  any           // last apply's response payload
	changed chan struct{} // closed and replaced on every advance

	// force carries POST /v1/checkpoint requests into the follower
	// goroutine, which services them between applies (nil when the
	// follower has no CheckpointSave configured).
	force chan chan error
}

func newWALState(replica int, startGen uint64) *walState {
	return &walState{replica: replica, gen: startGen, ckpt: startGen, changed: make(chan struct{})}
}

// position returns the last consumed log generation.
func (ws *walState) position() uint64 {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.gen
}

// checkpointGen returns the log position covered by the newest
// checkpoint this replica has published or booted from (0 when none).
func (ws *walState) checkpointGen() uint64 {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.ckpt
}

// setCheckpoint records a published checkpoint's covered position.
func (ws *walState) setCheckpoint(gen uint64) {
	ws.mu.Lock()
	if gen > ws.ckpt {
		ws.ckpt = gen
	}
	ws.mu.Unlock()
}

// advance records one consumed record's outcome and wakes waiters.
func (ws *walState) advance(gen uint64, status int, result any) {
	ws.mu.Lock()
	ws.gen, ws.status, ws.result = gen, status, result
	close(ws.changed)
	ws.changed = make(chan struct{})
	ws.mu.Unlock()
}

// report snapshots the last apply.
func (ws *walState) report() (gen uint64, status int, result any) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.gen, ws.status, ws.result
}

// waitFor blocks until generation gen has been consumed or the timeout
// elapses, reporting whether it was reached.
func (ws *walState) waitFor(gen uint64, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		ws.mu.Lock()
		if ws.gen >= gen {
			ws.mu.Unlock()
			return true
		}
		ch := ws.changed
		ws.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			return false
		}
	}
}

// FollowerOptions configures delta-log following for one replica.
type FollowerOptions struct {
	// Dir holds the fleet's log (tailed) and checkpoint (published).
	Dir string
	// Replica is the ordinal reported in /healthz.
	Replica int
	// Poll bounds the idle re-check interval (0 means 100ms).
	Poll time.Duration
	// Logf receives progress lines (nil silences them).
	Logf func(format string, args ...any)
	// Start is the hydrated checkpoint's log position and generation
	// vector; the zero value is a fresh boot (position 0, every shard at
	// generation 0). The follower tails only records past it.
	Start wal.CheckpointMeta
	// CheckpointEvery rolls a new checkpoint artifact each time this
	// many log generations have been applied since the last roll. 0
	// disables cadence checkpointing (POST /v1/checkpoint still works
	// when the server has a CheckpointSave).
	CheckpointEvery uint64
}

// Follower tails the fleet's delta log and applies each record to its
// Server. One Follower per replica process (cmd/giantd -wal).
type Follower struct {
	srv  *Server
	opts FollowerOptions
	ws   *walState
	// gens[i] is shard i's generation at the consumed position: the log
	// position that last changed it. Only the follower goroutine touches it.
	gens []uint64

	// lastCkpt is the log position at which the last checkpoint roll was
	// initiated; ckptBusy guards the single in-flight encode+publish, and
	// publishWG lets Run drain it before returning (a cancelled follower
	// must not leave a half-published artifact racing process shutdown).
	lastCkpt  atomic.Uint64
	ckptBusy  atomic.Bool
	publishWG sync.WaitGroup
}

// NewFollower attaches delta-log following to a per-shard server built
// with NewShard or HydrateShard and a ShardIngest callback (the replica
// applies each batch through its own deterministic apply path, with the
// mined attentions either mined here or taken from the outcome the first
// replica to reach the record published; both give the same bytes, which
// is what keeps replica generations identical across the fleet). From then
// on a direct /v1/ingest answers 503 read_only_replica instead of
// unavailable, and /v1/wal starts reporting (Start.WALGen until Run
// consumes the first suffix record).
func NewFollower(srv *Server, opts FollowerOptions) (*Follower, error) {
	if !srv.shardMode {
		return nil, errors.New("serve: follower needs a per-shard server (NewShard)")
	}
	if srv.opts.ShardIngest == nil {
		return nil, errors.New("serve: follower needs Options.ShardIngest (the replica applies each logged batch through its host's apply path)")
	}
	if opts.Poll <= 0 {
		opts.Poll = 100 * time.Millisecond
	}
	k := srv.cur.Load().proj.NumShards
	gens := slices.Clone(opts.Start.ServingGens)
	if len(gens) == 0 {
		gens = make([]uint64, k)
	}
	if len(gens) != k {
		return nil, fmt.Errorf("serve: follower start has %d serving generations for %d shards", len(gens), k)
	}
	ws := newWALState(opts.Replica, opts.Start.WALGen)
	if srv.opts.CheckpointSave != nil {
		ws.force = make(chan chan error, 1)
	}
	if !srv.wal.CompareAndSwap(nil, ws) {
		return nil, errors.New("serve: server already has a follower attached")
	}
	f := &Follower{srv: srv, opts: opts, ws: ws, gens: gens}
	f.lastCkpt.Store(opts.Start.WALGen)
	return f, nil
}

// Run tails the log until ctx is cancelled. The log file may not exist
// yet (the router creates it on its first ingest); Run waits for it. A
// corrupt log (mid-log checksum failure, generation gap) stops the
// follower with the error — serving continues at the last applied
// generation, but the replica will never ack past it, which is the
// operator's signal to restore the log and restart. ErrCompacted (the
// log was truncated past this replica's position while it was away)
// also stops the follower: the fix is a restart, which rehydrates the
// newer checkpoint the truncation was bounded by.
func (f *Follower) Run(ctx context.Context) error {
	var rd *wal.Reader
	defer func() {
		f.publishWG.Wait()
		if rd != nil {
			rd.Close()
		}
	}()
	wait := func() bool {
		select {
		case <-ctx.Done():
			return false
		case reply := <-f.forceChan():
			reply <- f.rollCheckpoint(f.ws.position())
			return true
		case <-time.After(f.opts.Poll):
			return true
		}
	}
	for {
		if rd == nil {
			r, err := wal.OpenReaderAt(wal.LogPath(f.opts.Dir), 0, 1, f.ws.position())
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) || errors.Is(err, wal.ErrTruncated) {
					// Not written yet (or header mid-write): retry.
					if !wait() {
						return ctx.Err()
					}
					continue
				}
				if errors.Is(err, wal.ErrCompacted) {
					return fmt.Errorf("serve: follower at generation %d: %w (restart to hydrate the newer checkpoint)", f.ws.position(), err)
				}
				return err
			}
			rd = r
		}
		rec, err := rd.Next()
		if err != nil {
			return fmt.Errorf("serve: follower at generation %d: %w", f.ws.position(), err)
		}
		if rec == nil {
			if !wait() {
				return ctx.Err()
			}
			continue
		}
		f.apply(rec)
		f.maybeCheckpoint(rec.Gen)
		select {
		case reply := <-f.forceChan():
			reply <- f.rollCheckpoint(rec.Gen)
		default:
		}
	}
}

// forceChan returns the forced-roll channel, or a nil channel (blocks
// forever in select) when checkpointing is not configured.
func (f *Follower) forceChan() chan chan error {
	return f.ws.force
}

// apply consumes one log record. A batch the mining pipeline rejects
// deterministically (400/422) still advances the consumed position —
// every replica rejects it identically, so skipping it keeps the fleet
// converged — with the rejection recorded for the router to surface.
func (f *Follower) apply(rec *wal.Record) {
	var status int
	var result any
	var batch delta.Batch
	if err := json.Unmarshal(rec.Payload, &batch); err != nil {
		status = http.StatusBadRequest
		result = errBody(codeInvalidArgument, "decode batch: "+err.Error())
	} else {
		var touched []bool
		status, result, touched = f.srv.ingestBatch(batch, rec)
		for i := range f.gens {
			if status == http.StatusOK && ontology.ShardChanged(touched, len(f.gens), i) {
				f.gens[i] = rec.Gen
			}
		}
	}
	f.ws.advance(rec.Gen, status, result)
	if f.opts.Logf != nil {
		if status == http.StatusOK {
			f.opts.Logf("wal: applied generation %d (day %d) -> serving generation %d", rec.Gen, rec.Day, f.srv.Generation())
		} else {
			f.opts.Logf("wal: generation %d rejected with status %d", rec.Gen, status)
		}
	}
}

// maybeCheckpoint rolls a cadence checkpoint once CheckpointEvery
// generations have been applied since the last roll. The host state is
// captured synchronously (the follower goroutine is the only writer, so
// between applies it is quiescent); the encode and publish run in a
// background goroutine so catch-up is not stalled by artifact I/O, with
// a single roll in flight at a time.
func (f *Follower) maybeCheckpoint(walGen uint64) {
	every := f.opts.CheckpointEvery
	if every == 0 || f.srv.opts.CheckpointSave == nil {
		return
	}
	if walGen-f.lastCkpt.Load() < every {
		return
	}
	if !f.ckptBusy.CompareAndSwap(false, true) {
		return // a roll is still publishing; re-check at the next apply
	}
	ck, err := f.captureCheckpoint(walGen)
	if err != nil {
		f.ckptBusy.Store(false)
		if f.opts.Logf != nil {
			f.opts.Logf("wal: checkpoint capture at generation %d failed: %v", walGen, err)
		}
		return
	}
	f.lastCkpt.Store(walGen)
	f.publishWG.Add(1)
	go func() {
		defer f.publishWG.Done()
		defer f.ckptBusy.Store(false)
		if err := f.publishCheckpoint(ck); err != nil {
			if f.opts.Logf != nil {
				f.opts.Logf("wal: checkpoint publish at generation %d failed: %v", walGen, err)
			}
			return
		}
		if f.opts.Logf != nil {
			f.opts.Logf("wal: checkpoint published at log generation %d (serving generations %v)", ck.WALGen, ck.ServingGens)
		}
	}()
}

// rollCheckpoint is the synchronous (forced) variant: capture, encode,
// and publish inline, so the POST /v1/checkpoint caller learns the real
// outcome.
func (f *Follower) rollCheckpoint(walGen uint64) error {
	if f.srv.opts.CheckpointSave == nil {
		return errors.New("serve: checkpointing not configured (no CheckpointSave)")
	}
	for !f.ckptBusy.CompareAndSwap(false, true) {
		time.Sleep(time.Millisecond) // wait out an in-flight cadence publish
	}
	defer f.ckptBusy.Store(false)
	ck, err := f.captureCheckpoint(walGen)
	if err != nil {
		if f.opts.Logf != nil {
			f.opts.Logf("wal: forced checkpoint at generation %d failed: %v", walGen, err)
		}
		return err
	}
	if err := f.publishCheckpoint(ck); err != nil {
		return err
	}
	f.lastCkpt.Store(walGen)
	if f.opts.Logf != nil {
		f.opts.Logf("wal: checkpoint published at log generation %d (serving generations %v)", ck.WALGen, ck.ServingGens)
	}
	return nil
}

// captureCheckpoint snapshots the host state at the current position.
// The union snapshot is immutable, so only the opaque state blob and the
// generation stamps need to be taken synchronously. It refuses when this
// shard's entry of the generation vector disagrees with the server: every
// entry follows the same rule, so none could be trusted.
func (f *Follower) captureCheckpoint(walGen uint64) (*wal.Checkpoint, error) {
	shard := f.srv.cur.Load().proj.Shard
	if own, served := f.gens[shard], f.srv.Generation(); own != served {
		return nil, fmt.Errorf("serve: refusing to publish a checkpoint: the generation vector puts shard %d at %d, but it serves %d", shard, own, served)
	}
	snap, hostState, err := f.srv.opts.CheckpointSave()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ontology.EncodeSnapshotBinary(&buf, snap, walGen); err != nil {
		return nil, err
	}
	return &wal.Checkpoint{
		CheckpointMeta: wal.CheckpointMeta{WALGen: walGen, ServingGens: append([]uint64(nil), f.gens...)},
		Snapshot:       buf.Bytes(),
		State:          hostState,
	}, nil
}

// publishCheckpoint writes the artifact and records it in walState.
func (f *Follower) publishCheckpoint(ck *wal.Checkpoint) error {
	if err := wal.PublishCheckpoint(f.opts.Dir, ck); err != nil {
		return err
	}
	f.ws.setCheckpoint(ck.WALGen)
	return nil
}

// HydrateShard walks the fleet's checkpoint recovery ladder — primary
// artifact, then the rotated previous one — and boots a server for shard
// from the newest one that fully validates: checkpoint CRCs and shard
// count, GIANTBIN decode with the covered log position stamped, and the
// host's CheckpointRestore must all succeed, otherwise the ladder falls
// through. The server serves at the artifact's generation for shard (the
// log position that last changed it), whichever replica published it. It
// returns the server plus the artifact's header, the caller's
// FollowerOptions.Start. A nil server means no usable checkpoint: the
// caller boots a fresh server and replays the whole log, the ladder's
// final rung. A shard outside [0, shards) is an error before any artifact
// is read.
func HydrateShard(walDir string, shard, shards int, opts Options, logf func(format string, args ...any)) (*Server, wal.CheckpointMeta, error) {
	if opts.CheckpointRestore == nil {
		return nil, wal.CheckpointMeta{}, errors.New("serve: HydrateShard needs Options.CheckpointRestore")
	}
	if shard < 0 || shard >= shards {
		return nil, wal.CheckpointMeta{}, fmt.Errorf("serve: HydrateShard of shard %d in a %d-shard fleet", shard, shards)
	}
	for _, p := range []string{wal.CheckpointPath(walDir), wal.PrevCheckpointPath(walDir)} {
		ck, err := wal.ReadCheckpoint(p, shards)
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) && logf != nil {
				logf("wal: checkpoint %s unusable: %v", p, err)
			}
			continue
		}
		snap, gen, err := ontology.DecodeSnapshotBinaryWithGen(ck.Snapshot)
		if err != nil {
			if logf != nil {
				logf("wal: checkpoint %s snapshot undecodable: %v", p, err)
			}
			continue
		}
		if gen != ck.WALGen {
			if logf != nil {
				logf("wal: checkpoint %s covers log generation %d but its snapshot is stamped %d; skipping", p, ck.WALGen, gen)
			}
			continue
		}
		proj, err := opts.CheckpointRestore(snap, ck.State)
		if err != nil {
			if logf != nil {
				logf("wal: checkpoint %s state restore failed: %v", p, err)
			}
			continue
		}
		if logf != nil {
			logf("wal: hydrated checkpoint %s (log generation %d, shard generation %d)", p, ck.WALGen, ck.ServingGens[shard])
		}
		return newShard(proj, ck.ServingGens[shard], opts), ck.CheckpointMeta, nil
	}
	return nil, wal.CheckpointMeta{}, nil
}

// handleCheckpoint answers POST /v1/checkpoint on a replica: it forces
// the follower to roll a checkpoint artifact at its current applied
// position, synchronously, and reports the covered log position — the
// operator's lever (giantctl checkpoint) for bounding catch-up before a
// planned restart or truncation.
func (s *Server) handleCheckpoint(st *state, r *http.Request) (int, any) {
	ws := s.wal.Load()
	if ws == nil {
		return http.StatusNotFound, errBody(codeNotFound, "not a delta-log replica (start giantd with -wal)")
	}
	if r.Method != http.MethodPost {
		return http.StatusMethodNotAllowed, errBody(codeMethodNotAllowed, "POST required")
	}
	if ws.force == nil {
		return http.StatusServiceUnavailable, errBody(codeUnavailable, "checkpointing not configured on this replica")
	}
	reply := make(chan error, 1)
	select {
	case ws.force <- reply:
	case <-time.After(30 * time.Second):
		return http.StatusServiceUnavailable, errBody(codeUnavailable, "follower busy; checkpoint request timed out")
	}
	select {
	case err := <-reply:
		if err != nil {
			return http.StatusInternalServerError, errBody(codeInternal, "checkpoint failed: "+err.Error())
		}
	case <-time.After(120 * time.Second):
		return http.StatusServiceUnavailable, errBody(codeUnavailable, "checkpoint still in progress after 120s")
	}
	return http.StatusOK, map[string]any{
		"shard":          st.proj.Shard,
		"shards":         st.proj.NumShards,
		"replica":        ws.replica,
		"checkpoint_gen": ws.checkpointGen(),
		"generation":     s.cur.Load().gen,
	}
}

// handleWAL answers GET /v1/wal on a replica: its consumed log position,
// serving generation, and the last apply's outcome. ?wait=G blocks until
// generation G has been applied (?timeout_ms= bounds the wait, default
// 30s, max 120s) — the router's quorum-ack and catch-up primitive.
// "applied" reports whether the wait target (or, without ?wait=, the
// current head position) has been consumed.
func (s *Server) handleWAL(st *state, r *http.Request) (int, any) {
	ws := s.wal.Load()
	if ws == nil {
		return http.StatusNotFound, errBody(codeNotFound, "not a delta-log replica (start giantd with -wal)")
	}
	q := r.URL.Query()
	applied := true
	if wg := q.Get("wait"); wg != "" {
		g, err := strconv.ParseUint(wg, 10, 64)
		if err != nil {
			return http.StatusBadRequest, errBody(codeInvalidArgument, "invalid wait: "+wg)
		}
		timeout := 30 * time.Second
		if ts := q.Get("timeout_ms"); ts != "" {
			ms, err := strconv.Atoi(ts)
			if err != nil || ms < 0 {
				return http.StatusBadRequest, errBody(codeInvalidArgument, "invalid timeout_ms: "+ts)
			}
			if ms > 120_000 {
				ms = 120_000
			}
			timeout = time.Duration(ms) * time.Millisecond
		}
		applied = ws.waitFor(g, timeout)
	}
	gen, status, result := ws.report()
	// The wait may have outlived st: report the generation serving NOW.
	cur := s.cur.Load()
	resp := map[string]any{
		"shard":          st.proj.Shard,
		"shards":         st.proj.NumShards,
		"replica":        ws.replica,
		"wal_gen":        gen,
		"generation":     cur.gen,
		"applied":        applied,
		"checkpoint_gen": ws.checkpointGen(),
	}
	if result != nil {
		resp["last"] = map[string]any{"wal_gen": gen, "status": status, "result": result}
	}
	return http.StatusOK, resp
}
