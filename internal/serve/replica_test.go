package serve

// Replicated serving pins, layered on the router_test.go harness shape:
//
//   - TestWALReplayEquivalence: a delta-log fleet (router -wal over
//     log-tailing replicas) replaying a day sequence stays byte-identical
//     on /v1/search and /v1/node — and generation-identical on ingest
//     accounting — to the in-process refWorld reference, for K ∈ {1, 2}.
//   - TestRollingRestartZero5xx: a 2-shard × 3-replica fleet under a
//     concurrent search+node+ingest hammer survives a rolling restart of
//     every replica with zero 5xx responses, and converges back to the
//     reference byte-for-byte.
//   - TestPinnedReadsMatchOneWorld: readers racing ingests and hydrating
//     restarts each get exactly the reference world at their read's pin.
//   - TestPinnedReadsFailOpenWithShardDown: a shard with every replica
//     down is missing from fail-open reads, never a refused pin's 5xx.
//   - TestPinnedReadsLeaveOutReplayingShard: a lone replica replaying
//     after a restart fails reads for its own shard alone; the pin stays
//     at the head the other shard holds.
//   - TestPinnedReadsSurviveStaleLowViews: a router whose every view is
//     stale low still reads the caught-up fleet at the head.
//   - TestReplicaAnswersPinFromTwoStates / TestRouterFailsOverRefusals:
//     a replica answers a pin from its current or previous state or
//     refuses, and the router fails a refusal over without marking it.
//   - TestReplicaCatchUpGating: a replica that missed ingests is never
//     routed a read until it has applied the read's pin.
//   - TestReadGateSurvivesOutOfOrderPositions: a replica's responses
//     processed out of order never move it below a read's pin; a
//     position below what it had already reported (a restart) does.
//   - TestReadFailoverRanksAtEachAttempt: a read fails over to a replica
//     that reached its pin while the call was in flight.
//   - TestIngestBackpressure: a shard whose slowest healthy replica
//     trails the log head by more than MaxLag answers ingest with 429
//     replica_lagging and a Retry-After header, and recovers once the
//     replica drains.
//   - TestFleetCheckpointHydratesEveryShard: the one fleet checkpoint,
//     rolled by a replica of shard 0, boots a replica of shard 1 at its
//     own shard's serving generation.
//   - TestGenerationIsLastChangingLogPosition: every replica's generation
//     is the log position of the last batch that changed its shard,
//     through a rejected batch and a hydrating restart.
//   - TestHydrateShardBounds: an out-of-range shard is an error, not a
//     panic on the checkpoint's vector.
//   - TestWALWaitDeadline: an apply wait that outlives its deadline
//     reports applied=false, and the router answers the unconfirmed
//     ingest 502 shard_unavailable.
//   - TestCheckpointRefusesDivergedGenerations: a follower whose own
//     vector entry disagrees with its server publishes nothing.
//   - TestIngestAppendFailure: a failed log append answers 503 with an
//     unknown outcome, and so does every later ingest.
//   - TestErrorEnvelope: every error path, across every serving mode,
//     renders the one {"error":{"code","message",...}} envelope with a
//     known machine code.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"giant/internal/delta"
	"giant/internal/ontology"
	"giant/internal/wal"
)

// detDelta derives a deterministic delta from a batch alone, so every
// replica — including one rebuilt from scratch replaying the log — mines
// the exact same outcome. Day 0 is the deterministic-rejection probe. A
// batch with clicks adds one concept per clicked query instead of the
// day's concept and event (whose homes always differ at K=2), so that a
// test can leave a shard untouched.
func detDelta(b delta.Batch) (*delta.Delta, error) {
	if b.Day == 0 {
		return nil, fmt.Errorf("empty batch: %w", delta.ErrInvalidBatch)
	}
	if len(b.Clicks) > 0 {
		d := &delta.Delta{Day: b.Day}
		for _, c := range b.Clicks {
			d.Add = append(d.Add, delta.NodeAdd{Type: ontology.Concept, Phrase: c.Query, Day: b.Day})
		}
		return d, nil
	}
	return &delta.Delta{Day: b.Day, Add: []delta.NodeAdd{
		{Type: ontology.Concept, Phrase: fmt.Sprintf("hybrid sedans %d", b.Day), Day: b.Day},
		{Type: ontology.Event, Phrase: fmt.Sprintf("sedan recall wave %d", b.Day), Day: b.Day},
	}}, nil
}

// shardIngestFunc is the type of Options.ShardIngest.
type shardIngestFunc = func(delta.Batch, wal.Record) (*ontology.Snapshot, *ontology.Snapshot, *delta.Delta, error)

// lineage is a test host's union: each applied delta advances it.
type lineage struct{ cur *ontology.Snapshot }

// apply advances the lineage by d, or passes err through, and returns
// what Options.ShardIngest returns.
func (l *lineage) apply(d *delta.Delta, err error) (*ontology.Snapshot, *ontology.Snapshot, *delta.Delta, error) {
	if err != nil {
		return nil, nil, nil, err
	}
	prev := l.cur
	next, err := delta.Apply(prev, d)
	if err != nil {
		return nil, nil, nil, err
	}
	l.cur = next
	return prev, next, d, nil
}

// scripted is a test backend's host: its own lineage from base, advanced
// by the script's delta for each batch.
func scripted(base *ontology.Snapshot, script func(delta.Batch) (*delta.Delta, error)) shardIngestFunc {
	l := &lineage{cur: base}
	return func(b delta.Batch, _ wal.Record) (*ontology.Snapshot, *ontology.Snapshot, *delta.Delta, error) {
		return l.apply(script(b))
	}
}

// byDay adapts a per-day delta script to scripted.
func byDay(script func(day int) *delta.Delta) func(delta.Batch) (*delta.Delta, error) {
	return func(b delta.Batch) (*delta.Delta, error) { return script(b.Day), nil }
}

// detShardHost is a per-shard backend's deterministic mining stand-in:
// its own lineage from the shared base, advanced only by detDelta — plus
// the checkpoint half of the host contract: save pairs the union snapshot
// with a small self-describing state blob, and restore checks the pair
// and adopts the union, exactly the shape cmd/giantd wires
// System.CheckpointState/RestoreCheckpoint into.
type detShardHost struct{ lineage }

// ingest applies one batch to the host lineage. gate, when non-nil, is
// received from before each apply — the catch-up and backpressure tests
// use it to hold a replica mid-tail.
func (h *detShardHost) ingest(gate chan struct{}) shardIngestFunc {
	return func(b delta.Batch, _ wal.Record) (*ontology.Snapshot, *ontology.Snapshot, *delta.Delta, error) {
		if gate != nil {
			<-gate
		}
		return h.apply(detDelta(b))
	}
}

// save is the host's CheckpointSave: the union snapshot plus a blob that
// records enough to cross-check the pairing at restore time.
func (h *detShardHost) save() (*ontology.Snapshot, []byte, error) {
	blob, err := json.Marshal(map[string]int{"nodes": h.cur.NodeCount(), "edges": h.cur.EdgeCount()})
	return h.cur, blob, err
}

// restore is the host's CheckpointRestore: validate the blob against the
// snapshot and adopt the union as the lineage's head.
func (h *detShardHost) restore(snap *ontology.Snapshot, state []byte) error {
	var st struct{ Nodes, Edges int }
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	if st.Nodes != snap.NodeCount() || st.Edges != snap.EdgeCount() {
		return fmt.Errorf("state blob records %d nodes/%d edges, snapshot has %d/%d",
			st.Nodes, st.Edges, snap.NodeCount(), snap.EdgeCount())
	}
	h.cur = snap
	return nil
}

// refWorld is the in-process reference the fleet tests compare with. A
// whole-world server takes no write, so refWorld drives a deterministic
// whole-world ingester directly, serves a fresh NewSharded over each
// step's result, and derives the per-shard generations a fleet must
// report with its own copy of the rule (the oracle does not call
// ontology.ShardChanged): each step is the next log position, and shard i
// moves to it when the batch touched it, the one shard always at K=1.
type refWorld struct {
	*httptest.Server
	t      *testing.T
	ingest shardIngestFunc
	opts   Options
	srv    atomic.Pointer[Server]
	pos    uint64   // log position of the last step
	gens   []uint64 // gens[i]: the last step that changed shard i
}

func newRefWorld(t *testing.T, base *ontology.ShardedSnapshot, ingest shardIngestFunc, opts Options) *refWorld {
	t.Helper()
	r := &refWorld{t: t, ingest: ingest, opts: opts, gens: make([]uint64, base.NumShards())}
	r.srv.Store(NewSharded(base, opts))
	r.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.srv.Load().Handler().ServeHTTP(w, req)
	}))
	t.Cleanup(r.Close)
	return r
}

// current is the server answering right now.
func (r *refWorld) current() *Server { return r.srv.Load() }

// step applies one JSON batch as the next log position and serves the
// result. It returns the touched_shards and shard_generations a fleet's
// ingest of the same batch must answer, decoded from JSON so they compare
// with a router response. Every step must mirror one accepted fleet
// ingest, in log order.
func (r *refWorld) step(body string) map[string]any {
	r.t.Helper()
	var b delta.Batch
	if err := json.Unmarshal([]byte(body), &b); err != nil {
		r.t.Fatalf("reference batch %s: %v", body, err)
	}
	prev, next, d, err := r.ingest(b, wal.Record{})
	if err != nil {
		r.t.Fatalf("reference ingest %s: %v", body, err)
	}
	touched := delta.TouchedShards(prev, d, len(r.gens))
	r.pos++
	ts := []int{}
	for i := range r.gens {
		if touched[i] {
			ts = append(ts, i)
		}
		if len(r.gens) == 1 || touched[i] {
			r.gens[i] = r.pos
		}
	}
	ss, err := ontology.ShardSnapshot(next, len(r.gens))
	if err != nil {
		r.t.Fatal(err)
	}
	r.srv.Store(NewSharded(ss, r.opts))
	raw, err := json.Marshal(map[string]any{"touched_shards": ts, "shard_generations": r.gens})
	if err != nil {
		r.t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		r.t.Fatal(err)
	}
	return out
}

// stats is the reference /v1/stats with each shard row's generation set to
// the one a fleet's replicas of that shard serve.
func (r *refWorld) stats() map[string]any {
	r.t.Helper()
	st := getJSON(r.t, r.Client(), r.URL+"/v1/stats", 200)
	for i, row := range st["shards"].([]any) {
		row.(map[string]any)["generation"] = float64(r.gens[i])
	}
	return st
}

// replicaProc is one simulated giantd -shard -wal process: a per-shard
// server with an attached follower, reachable through a stable outer URL
// that survives "process restarts" (the rolling-restart test swaps the
// inner handler while the outer httptest server stays put).
type replicaProc struct {
	shard, idx int
	walDir     string
	ckptEvery  uint64 // > 0: checkpoint-enabled boots (hydrate + cadence rolls)
	outer      *httptest.Server
	down       atomic.Bool

	mu     sync.Mutex
	inner  http.Handler
	cancel context.CancelFunc
	done   chan struct{}         // closed when the follower goroutine exits
	runErr atomic.Pointer[error] // the follower's exit error, if it stopped on its own
}

func (p *replicaProc) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.down.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	p.mu.Lock()
	h := p.inner
	p.mu.Unlock()
	h.ServeHTTP(w, r)
}

// boot builds a fresh server and follower and swaps both in — exactly
// what restarting a giantd -wal replica does. Without checkpointing the
// server starts over the base projection and the follower replays the
// whole log from generation zero; with ckptEvery > 0 the boot walks the
// hydration ladder first and tails only the suffix past the artifact it
// booted from.
func (p *replicaProc) boot(t *testing.T, base *ontology.ShardedSnapshot, gate chan struct{}) {
	t.Helper()
	host := &detShardHost{lineage{cur: base.Union()}}
	opts := Options{ShardIngest: host.ingest(gate)}
	var srv *Server
	var start wal.CheckpointMeta
	if p.ckptEvery > 0 {
		opts.CheckpointSave = host.save
		opts.CheckpointRestore = host.restore
		var err error
		srv, start, err = HydrateShard(p.walDir, p.shard, base.NumShards(), opts, nil)
		if err != nil {
			t.Fatalf("shard %d replica %d hydrate: %v", p.shard, p.idx, err)
		}
	}
	if srv == nil {
		srv = NewShard(base.Projection(p.shard), opts)
	}
	fl, err := NewFollower(srv, FollowerOptions{
		Dir:             p.walDir,
		Replica:         p.idx,
		Poll:            time.Millisecond,
		Start:           start,
		CheckpointEvery: p.ckptEvery,
	})
	if err != nil {
		t.Fatalf("shard %d replica %d: %v", p.shard, p.idx, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.runErr.Store(nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := fl.Run(ctx); err != nil && ctx.Err() == nil {
			p.runErr.Store(&err)
		}
	}()
	p.mu.Lock()
	if p.cancel != nil {
		p.cancel()
		<-p.done // the old follower (and any in-flight publish) is drained
	}
	p.inner, p.cancel, p.done = srv.Handler(), cancel, done
	p.mu.Unlock()
}

func (p *replicaProc) stop() {
	p.down.Store(true)
	p.mu.Lock()
	if p.cancel != nil {
		p.cancel()
		p.cancel = nil
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			// A gated follower can be stuck mid-apply; don't hang cleanup.
		}
	}
	p.mu.Unlock()
}

// walFixture boots a K-shard × R-replica delta-log fleet plus its router.
type walFixture struct {
	k        int
	base     *ontology.ShardedSnapshot
	walDir   string
	procs    [][]*replicaProc // [shard][replica]
	rt       *Router
	routerTS *httptest.Server
}

func newWALFixture(t *testing.T, k, r int, opts RouterOptions) *walFixture {
	return newCkptWALFixture(t, k, r, 0, opts)
}

// newCkptWALFixture is newWALFixture with checkpointing enabled on every
// replica when every > 0 (hydrating boots + a cadence roll each `every`
// applied generations).
func newCkptWALFixture(t *testing.T, k, r int, every uint64, opts RouterOptions) *walFixture {
	t.Helper()
	base, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), k)
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	f := &walFixture{k: k, base: base, walDir: walDir, procs: make([][]*replicaProc, k)}
	replicas := make([][]string, k)
	for s := 0; s < k; s++ {
		for ri := 0; ri < r; ri++ {
			p := &replicaProc{
				shard: s, idx: ri, ckptEvery: every,
				walDir: walDir,
			}
			p.boot(t, base, nil)
			p.outer = httptest.NewServer(p)
			t.Cleanup(p.outer.Close)
			t.Cleanup(p.stop)
			f.procs[s] = append(f.procs[s], p)
			replicas[s] = append(replicas[s], p.outer.URL)
		}
	}
	opts.Replicas = replicas
	opts.WALDir = walDir
	if opts.WriteTimeout == 0 {
		opts.WriteTimeout = 10 * time.Second
	}
	f.rt, err = NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.rt.Close)
	f.routerTS = httptest.NewServer(f.rt.Handler())
	t.Cleanup(f.routerTS.Close)
	return f
}

// headGen returns the fleet delta log's head generation.
func (f *walFixture) headGen() uint64 { return f.rt.log.Head() }

// replicaWALGen asks a replica directly for its applied log position.
func replicaWALGen(t *testing.T, p *replicaProc) uint64 {
	t.Helper()
	resp, err := p.outer.Client().Get(p.outer.URL + "/v1/wal")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var parsed struct {
		WALGen uint64 `json:"wal_gen"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
		return 0
	}
	return parsed.WALGen
}

// followLog turns each per-shard server into a replica tailing the fleet
// log in dir (polling every millisecond) until the test ends, or until the
// returned stop is called: the only way a per-shard server takes writes. A
// router with WALDir dir in front of them is then the fleet's write path.
func followLog(t *testing.T, dir string, srvs ...*Server) (stop func()) {
	t.Helper()
	var stops []func()
	for _, srv := range srvs {
		fl, err := NewFollower(srv, FollowerOptions{Dir: dir, Poll: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		var runErr error
		go func() {
			defer close(done)
			runErr = fl.Run(ctx)
		}()
		var once sync.Once
		stop := func() {
			once.Do(func() {
				cancel()
				<-done
				if !errors.Is(runErr, context.Canceled) {
					t.Errorf("follower stopped on its own: %v", runErr)
				}
			})
		}
		t.Cleanup(stop)
		stops = append(stops, stop)
	}
	return func() {
		for _, stop := range stops {
			stop()
		}
	}
}

// TestFleetOfOneKeepsAckedBatchesAcrossRestart: the smallest writable
// deployment, a router with a delta log over one 0/1 replica, loses no
// acked batch when every process restarts. A fresh replica booted from the
// base world replays the log, a fresh router reopens it, the ingested
// nodes answer byte-identically to before, and the next batch lands at
// log generation 3.
func TestFleetOfOneKeepsAckedBatchesAcrossRestart(t *testing.T) {
	base, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	boot := func() (stop func(), replica *httptest.Server, rt *Router, router *httptest.Server) {
		t.Helper()
		srv := NewShard(base.Projection(0), Options{ShardIngest: scripted(base.Union(), detDelta)})
		stop = followLog(t, dir, srv)
		replica = httptest.NewServer(srv.Handler())
		t.Cleanup(replica.Close)
		rt, err := NewRouter(RouterOptions{Backends: []string{replica.URL}, WALDir: dir, WriteTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		router = httptest.NewServer(rt.Handler())
		t.Cleanup(router.Close)
		return stop, replica, rt, router
	}
	probes := []string{
		"/v1/node?phrase=hybrid+sedans+11&type=concept",
		"/v1/node?phrase=sedan+recall+wave+12",
		"/v1/search?q=hybrid&limit=5",
		"/v1/search?q=recall&limit=5",
	}

	stop, replica, rt, router := boot()
	for day := 11; day <= 12; day++ {
		postJSON(t, router.Client(), router.URL+"/v1/ingest", fmt.Sprintf(`{"day":%d}`, day), 200)
	}
	before := map[string][]byte{}
	for _, path := range probes {
		status, body := getRaw(t, router.Client(), router.URL+path)
		if status != http.StatusOK {
			t.Fatalf("%s before the restart = %d: %s", path, status, body)
		}
		before[path] = body
	}

	// Every process goes away: the router (closing the log), the replica.
	router.Close()
	rt.Close()
	stop()
	replica.Close()

	_, replica, _, router = boot()
	if status, body := getRaw(t, replica.Client(), replica.URL+"/v1/wal?wait=2"); status != http.StatusOK || !bytes.Contains(body, []byte(`"applied":true`)) {
		t.Fatalf("the fresh replica never replayed the acked batches: %d %s", status, body)
	}
	for _, path := range probes {
		status, body := getRaw(t, router.Client(), router.URL+path)
		if status != http.StatusOK || !bytes.Equal(body, before[path]) {
			t.Fatalf("%s after the restart = %d:\n%s\nbefore:\n%s", path, status, body, before[path])
		}
	}
	out := postJSON(t, router.Client(), router.URL+"/v1/ingest", `{"day":13}`, 200)
	if !reflect.DeepEqual(out["wal_generations"], []any{3.0}) {
		t.Fatalf("the first batch after the restart landed at %v, want log generation 3", out["wal_generations"])
	}
}

// TestWALReplayEquivalence: the delta-log fleet's determinism pin. For
// K ∈ {1, 2}, replaying a day sequence through router-WAL ingest keeps
// /v1/search and /v1/node byte-identical to the refWorld reference, with
// identical generation accounting — and the WAL-only
// write rules hold (deterministic rejections forwarded, direct replica
// writes refused, no fleet reload route).
func TestWALReplayEquivalence(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			f := newWALFixture(t, k, 1, RouterOptions{})
			ref := newRefWorld(t, f.base, scripted(f.base.Union(), detDelta), Options{})

			probes := func() []string {
				paths := []string{
					"/v1/search?q=sedan&limit=10",
					"/v1/search?q=sedan+recall&limit=5",
					"/v1/search?q=hybrid&limit=3",
					"/v1/node?phrase=family+sedans",
					"/v1/node?phrase=family+sedans&type=concept",
					"/v1/node?id=0",
					"/v1/node?phrase=no+such+node",
				}
				for d := 11; d <= 14; d++ {
					paths = append(paths,
						fmt.Sprintf("/v1/node?phrase=hybrid+sedans+%d&type=concept", d),
						fmt.Sprintf("/v1/node?phrase=sedan+recall+wave+%d", d))
				}
				return paths
			}
			assertSame := func(path string) {
				t.Helper()
				refStatus, refBody := getRaw(t, ref.Client(), ref.URL+path)
				gotStatus, gotBody := getRaw(t, f.routerTS.Client(), f.routerTS.URL+path)
				if refStatus != gotStatus || !bytes.Equal(refBody, gotBody) {
					t.Fatalf("k=%d %s diverges: status %d vs %d\nrouter: %s\nref:    %s",
						k, path, gotStatus, refStatus, gotBody, refBody)
				}
			}

			for day := 11; day <= 14; day++ {
				body := fmt.Sprintf(`{"day":%d}`, day)
				refResp := ref.step(body)
				gotResp := postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", body, 200)
				if !reflect.DeepEqual(refResp["touched_shards"], gotResp["touched_shards"]) {
					t.Fatalf("k=%d day %d: touched shards diverge: %v vs %v",
						k, day, gotResp["touched_shards"], refResp["touched_shards"])
				}
				if !reflect.DeepEqual(refResp["shard_generations"], gotResp["shard_generations"]) {
					t.Fatalf("k=%d day %d: shard generations diverge: %v vs %v",
						k, day, gotResp["shard_generations"], refResp["shard_generations"])
				}
				for _, p := range probes() {
					assertSame(p)
				}
			}

			// A deterministically rejected batch surfaces with the replica's
			// status and envelope, and does not advance serving generations.
			status, body := postRaw(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", `{"day":0}`)
			if status != http.StatusUnprocessableEntity {
				t.Fatalf("deterministic rejection = %d: %s", status, body)
			}
			assertEnvelope(t, body, codeInvalidBatch)

			// Direct writes to a replica are refused: it follows the log.
			rep := f.procs[0][0]
			status, body = postRaw(t, rep.outer.Client(), rep.outer.URL+"/v1/ingest", `{"day":99}`)
			if status != http.StatusServiceUnavailable {
				t.Fatalf("direct replica ingest = %d: %s", status, body)
			}
			assertEnvelope(t, body, codeReadOnlyReplica)

			// A WAL-mode router has no reload: the path is not routed.
			status, body = postRaw(t, f.routerTS.Client(), f.routerTS.URL+"/v1/reload", "")
			if status != http.StatusNotFound {
				t.Fatalf("WAL-mode reload = %d: %s", status, body)
			}
			assertEnvelope(t, body, codeNotFound)
		})
	}
}

// TestRollingRestartZero5xx is the flagship operational proof: a 2-shard ×
// 3-replica fleet under a concurrent search+node+ingest hammer has every
// replica restarted, one at a time — each rebuilt from the base world and
// made to catch up from the delta log alone — without a single 5xx
// answered by the router, and ends byte-identical to the reference.
func TestRollingRestartZero5xx(t *testing.T) {
	f := newWALFixture(t, 2, 3, RouterOptions{
		ProbeInterval: 10 * time.Millisecond,
		Timeout:       2 * time.Second,
		WriteTimeout:  10 * time.Second,
		// A failure prints the router's replica down/recovered transitions.
		Logf: func(format string, args ...any) {
			t.Logf("%s router: %s", time.Now().Format("15:04:05.000000"), fmt.Sprintf(format, args...))
		},
	})
	ref := newRefWorld(t, f.base, scripted(f.base.Union(), detDelta), Options{})

	var server5xx, reads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	readPaths := []string{
		"/v1/search?q=sedan&limit=10",
		"/v1/search?q=recall&limit=5",
		"/v1/node?phrase=family+sedans",
		"/v1/node?phrase=family+sedans&type=concept",
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := f.routerTS.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := f.routerTS.URL + readPaths[(g+i)%len(readPaths)]
				resp, err := client.Get(url)
				if err != nil {
					continue // client-side churn, not a served 5xx
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				reads.Add(1)
				if resp.StatusCode >= 500 {
					server5xx.Add(1)
					t.Errorf("read %s = %d during rolling restart: %s", url, resp.StatusCode, body)
				}
			}
		}(g)
	}
	// One serialized ingest stream alongside the reads, mirrored to the
	// reference so the final worlds are comparable.
	day := 10
	ingest := func() {
		t.Helper()
		day++
		body := fmt.Sprintf(`{"day":%d}`, day)
		status, got := postRaw(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", body)
		if status >= 500 {
			server5xx.Add(1)
			t.Errorf("ingest day %d = %d during rolling restart: %s", day, status, got)
		}
		ref.step(body)
	}

	ingest()
	for s := 0; s < 2; s++ {
		for ri := 0; ri < 3; ri++ {
			p := f.procs[s][ri]
			p.stop()
			ingest() // a write lands while the replica is gone
			// Restart: fresh base world, catch up from the log alone.
			p.boot(t, f.base, nil)
			p.down.Store(false)
			ingest()
			head := f.headGen()
			waitFor(t, 10*time.Second, fmt.Sprintf("shard %d replica %d to catch up", s, ri), func() bool {
				return replicaWALGen(t, p) >= head
			})
		}
	}
	ingest()
	close(stop)
	wg.Wait()
	if server5xx.Load() > 0 {
		t.Fatalf("%d responses were 5xx during the rolling restart", server5xx.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("hammer produced no reads")
	}
	// The evolved fleet matches the reference byte for byte.
	for _, p := range readPaths {
		refStatus, refBody := getRaw(t, ref.Client(), ref.URL+p)
		gotStatus, gotBody := getRaw(t, f.routerTS.Client(), f.routerTS.URL+p)
		if refStatus != gotStatus || !bytes.Equal(refBody, gotBody) {
			t.Fatalf("%s diverges after rolling restart:\nrouter: %s\nref:    %s", p, gotBody, refBody)
		}
	}
}

// TestPinnedReadsMatchOneWorld is the pin's fence. On a 2-shard ×
// 2-replica fleet over the scripted host, four readers race a stream of
// routed ingests, two replicas restart mid-run (hydrating the cadence
// checkpoint), and every read answers exactly what the reference world
// answers at the log position the read was pinned to (X-Giant-Wal-Gen):
// routed search, scattered node lookups with their IsA ancestors, tag,
// rewrite, story and /v1/stats. No read is a 5xx. Afterwards a second
// router built over the caught-up fleet, with no prober, answers its very
// first read at the log head.
func TestPinnedReadsMatchOneWorld(t *testing.T) {
	f := newCkptWALFixture(t, 2, 2, 3, RouterOptions{ProbeInterval: 10 * time.Millisecond})
	ref := newRefWorld(t, f.base, scripted(f.base.Union(), detDelta), Options{})
	type world struct {
		srv  *Server
		gens []any // each shard's generation at this position
	}
	var mu sync.Mutex
	worlds := []world{{ref.current(), []any{0.0, 0.0}}}
	at := func(p int) world {
		mu.Lock()
		defer mu.Unlock()
		return worlds[p]
	}
	paths := []string{
		"/v1/search?q=sedan&limit=20",
		"/v1/search?q=recall&limit=5",
		"/v1/node?phrase=family+sedans",
		"/v1/node?phrase=sedan+model+a",
		"/v1/tag?" + url.Values{"title": {"sedan recall wave news"}, "entities": {"Sedan Model A"}}.Encode(),
		"/v1/query/rewrite?q=hybrid+sedans",
		"/v1/story?seed=sedan+recall+wave+11",
		"/v1/stats",
	}
	// check compares one routed read with the reference world at its pin.
	check := func(path string, status int, hdr http.Header, body []byte) error {
		p, err := strconv.Atoi(hdr.Get(walGenHeader))
		if err != nil {
			return fmt.Errorf("%s = %d without a pin (%v): %s", path, status, err, body)
		}
		w := at(p)
		rec := httptest.NewRecorder()
		w.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if path != "/v1/stats" {
			if status != rec.Code || !bytes.Equal(body, rec.Body.Bytes()) {
				return fmt.Errorf("%s pinned at %d = %d: %s\nthe world at %d: %d: %s", path, p, status, body, p, rec.Code, rec.Body.Bytes())
			}
			return nil
		}
		var got, want map[string]any
		if err := json.Unmarshal(body, &got); err != nil || status != http.StatusOK {
			return fmt.Errorf("/v1/stats pinned at %d = %d: %s", p, status, body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
			return err
		}
		for i, row := range want["shards"].([]any) {
			row.(map[string]any)["generation"] = w.gens[i]
		}
		for _, field := range []string{"nodes", "edges", "nodes_by_type", "edges_by_type", "shards", "partial"} {
			if !reflect.DeepEqual(got[field], want[field]) {
				return fmt.Errorf("/v1/stats pinned at %d: %q = %v, the world at %d has %v", p, field, got[field], p, want[field])
			}
		}
		return nil
	}

	var reads atomic.Int64
	positions := sync.Map{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := f.routerTS.Client()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[i%len(paths)]
				resp, err := c.Get(f.routerTS.URL + path)
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				reads.Add(1)
				positions.Store(resp.Header.Get(walGenHeader), true)
				if err := check(path, resp.StatusCode, resp.Header, body); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	restarts := map[int]*replicaProc{4: f.procs[0][1], 8: f.procs[1][0]}
	for day := 11; day <= 22; day++ {
		body := fmt.Sprintf(`{"day":%d}`, day)
		out := ref.step(body)
		mu.Lock()
		worlds = append(worlds, world{ref.current(), out["shard_generations"].([]any)})
		mu.Unlock()
		if status, got := postRaw(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", body); status != http.StatusOK {
			t.Errorf("ingest day %d = %d: %s", day, status, got)
		}
		if p := restarts[day-10]; p != nil {
			p.stop()
			p.boot(t, f.base, nil)
			p.down.Store(false)
		}
	}
	close(stop)
	wg.Wait()
	n := 0
	positions.Range(func(any, any) bool { n++; return true })
	if reads.Load() == 0 || n < 2 {
		t.Fatalf("%d reads at %d positions: the readers never raced an ingest", reads.Load(), n)
	}

	head := f.headGen()
	for _, row := range f.procs {
		for _, p := range row {
			waitFor(t, 10*time.Second, fmt.Sprintf("shard %d replica %d to reach %d", p.shard, p.idx, head), func() bool {
				return replicaWALGen(t, p) >= head
			})
		}
	}
	replicas := make([][]string, len(f.procs))
	for s, row := range f.procs {
		for _, p := range row {
			replicas[s] = append(replicas[s], p.outer.URL)
		}
	}
	rt, err := NewRouter(RouterOptions{Replicas: replicas, WALDir: f.walDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	fresh := httptest.NewServer(rt.Handler())
	t.Cleanup(fresh.Close)
	resp, err := fresh.Client().Get(fresh.URL + paths[0])
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if pin := resp.Header.Get(walGenHeader); resp.StatusCode != http.StatusOK || pin != strconv.FormatUint(head, 10) {
		t.Fatalf("a fresh router's first read = %d pinned at %q, want 200 at %d: %s", resp.StatusCode, pin, head, body)
	}
	if err := check(paths[0], resp.StatusCode, resp.Header, body); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaAnswersPinFromTwoStates: a replica answers a read pinned at
// its current state's position or the one its last publish replaced, and
// refuses with 409 a pin it has not applied yet or that predates both
// states, reporting its own position either way. A malformed pin is a
// 400; a read without one gets the current state.
func TestReplicaAnswersPinFromTwoStates(t *testing.T) {
	base, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	srv := NewShard(base.Projection(0), Options{ShardIngest: scripted(base.Union(), detDelta)})
	followLog(t, dir, srv)
	replica := httptest.NewServer(srv.Handler())
	t.Cleanup(replica.Close)
	lg, err := wal.Open(wal.LogPath(dir), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	apply := func(day int) {
		t.Helper()
		gen, err := lg.Append(day, []byte(fmt.Sprintf(`{"day":%d}`, day)))
		if err != nil {
			t.Fatal(err)
		}
		getJSON(t, replica.Client(), fmt.Sprintf("%s/v1/wal?wait=%d", replica.URL, gen), 200)
	}
	read := func(pin string) (int, string, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, replica.URL+"/v1/search?q=hybrid&limit=5", nil)
		if err != nil {
			t.Fatal(err)
		}
		if pin != "" {
			req.Header.Set(pinHeader, pin)
		}
		resp, err := replica.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get(walGenHeader), body
	}
	apply(11)
	_, _, atOne := read("1")
	apply(12)
	_, _, atTwo := read("")
	if !bytes.Contains(atTwo, []byte("hybrid sedans 12")) || bytes.Contains(atOne, []byte("hybrid sedans 12")) {
		t.Fatalf("precondition: position 1 %s, position 2 %s", atOne, atTwo)
	}
	for _, tc := range []struct {
		pin    string
		status int
		body   []byte
	}{
		{"2", http.StatusOK, atTwo},
		{"1", http.StatusOK, atOne}, // the state position 2 replaced
		{"0", statusRefused, nil},   // older than both states held
		{"3", statusRefused, nil},   // not applied yet
		{"x", http.StatusBadRequest, nil},
	} {
		status, pos, body := read(tc.pin)
		if status != tc.status || pos != "2" || tc.body != nil && !bytes.Equal(body, tc.body) {
			t.Fatalf("pin %s = %d at position %q: %s; want %d at 2", tc.pin, status, pos, body, tc.status)
		}
		if tc.body == nil {
			assertEnvelope(t, body, "")
		}
	}
}

// TestRouterFailsOverRefusals: a replica's pin refusal is an answer, not
// a failure. The read moves on to the next replica at the pin and the
// refusing one stays healthy; when every replica refuses, the shard fails
// like an unreachable one, and the refusal's 409 reaches no caller.
func TestRouterFailsOverRefusals(t *testing.T) {
	var refuse [2]atomic.Bool
	stub := func(i int) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(walGenHeader, "5")
			if r.URL.Path != "/healthz" && refuse[i].Load() {
				w.WriteHeader(statusRefused)
			}
			fmt.Fprintf(w, "{\"replica\":%d}\n", i)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	rt, err := NewRouter(RouterOptions{Replicas: [][]string{{stub(0), stub(1)}}, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ctx := context.WithValue(context.Background(), pinKey{}, rt.position())
	refuse[0].Store(true)
	for i := 0; i < 4; i++ {
		if res := rt.call(ctx, 0, http.MethodGet, "/v1/search?q=sedan", nil); !res.ok() || string(res.body) != "{\"replica\":1}\n" {
			t.Fatalf("read %d = %d %q, %v; want replica 1's answer", i, res.status, res.body, res.err)
		}
	}
	refuse[1].Store(true)
	if res := rt.call(ctx, 0, http.MethodGet, "/v1/search?q=sedan", nil); res.err == nil || !strings.Contains(res.err.Error(), "no replica holds log position 5") {
		t.Fatalf("every replica refusing = %d %q, %v; want a failed shard", res.status, res.body, res.err)
	}
	for _, rep := range rt.shards[0] {
		if rep.down.Load() {
			t.Fatalf("replica %d marked down for refusing a pin", rep.idx)
		}
	}
}

// TestPinnedReadsFailOpenWithShardDown: under fail-open, a shard whose
// every replica is down is a missing shard, not a pin the other shard
// cannot answer: fan-out reads answer 200 marked partial while it is
// down, and 200 (partial until it catches up) while its restarted
// replicas replay the log. No refusal ever surfaces as a 5xx.
func TestPinnedReadsFailOpenWithShardDown(t *testing.T) {
	f := newWALFixture(t, 2, 2, RouterOptions{FailOpen: true, ProbeInterval: 10 * time.Millisecond})
	for day := 11; day <= 13; day++ {
		postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", fmt.Sprintf(`{"day":%d}`, day), 200)
	}
	paths := []string{
		"/v1/search?q=sedan&limit=20",
		"/v1/tag?" + url.Values{"title": {"sedan recall wave news"}, "entities": {"Sedan Model A"}}.Encode(),
		"/v1/query/rewrite?q=hybrid+sedans",
		"/v1/stats",
	}
	readAll := func(stage string, wantPartial bool) (partial bool) {
		t.Helper()
		for _, path := range paths {
			status, body := getRaw(t, f.routerTS.Client(), f.routerTS.URL+path)
			if status != http.StatusOK {
				t.Fatalf("%s: %s = %d: %s", stage, path, status, body)
			}
			p := bytes.Contains(body, []byte(`"partial":true`))
			if wantPartial && !p {
				t.Fatalf("%s: %s is not marked partial: %s", stage, path, body)
			}
			partial = partial || p
		}
		return partial
	}
	// Let every apply wait of the acks end before shard 1 goes away.
	head := f.headGen()
	for _, row := range f.procs {
		for _, p := range row {
			waitFor(t, 10*time.Second, "every replica to reach the log head", func() bool {
				return replicaWALGen(t, p) >= head
			})
		}
	}
	for _, p := range f.procs[1] {
		p.stop()
	}
	readAll("shard 1 down", true)
	for _, p := range f.procs[1] {
		p.boot(t, f.base, nil)
		p.down.Store(false)
	}
	waitFor(t, 10*time.Second, "complete answers once shard 1 caught up", func() bool {
		return !readAll("shard 1 replaying", false)
	})
}

// TestPinnedReadsLeaveOutReplayingShard: with one replica per shard, a
// restarted replica replaying the log does not pull the pin below the
// states shard 0 keeps. While shard 1 is two or more records behind the
// head, fan-out reads stay pinned at the head: fail-closed they answer 503
// naming shard 1 alone, fail-open 200 partial missing shard 1 alone. Once
// it has caught up they answer as before the restart.
func TestPinnedReadsLeaveOutReplayingShard(t *testing.T) {
	paths := []string{
		"/v1/search?q=sedan&limit=20",
		"/v1/node?phrase=family+sedans",
		"/v1/query/rewrite?q=hybrid+sedans",
		"/v1/stats",
	}
	for _, failOpen := range []bool{false, true} {
		t.Run(fmt.Sprintf("failOpen=%v", failOpen), func(t *testing.T) {
			f := newWALFixture(t, 2, 1, RouterOptions{FailOpen: failOpen})
			for day := 11; day <= 13; day++ {
				postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", fmt.Sprintf(`{"day":%d}`, day), 200)
			}
			const head = "3"
			read := func(path string) (int, string, []byte) {
				t.Helper()
				resp, err := f.routerTS.Client().Get(f.routerTS.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, resp.Header.Get(walGenHeader), body
			}
			before := map[string][]byte{}
			for _, path := range paths {
				status, pin, body := read(path)
				if status != http.StatusOK || pin != head {
					t.Fatalf("%s before the restart = %d at %q: %s", path, status, pin, body)
				}
				before[path] = body
			}
			shardOneMissing := func(stage string) {
				t.Helper()
				for _, path := range paths {
					status, pin, body := read(path)
					var parsed struct {
						Partial bool  `json:"partial"`
						Missing []int `json:"missing_shards"`
					}
					json.Unmarshal(body, &parsed)
					// A node lookup has no partial form: fail-open, a node
					// it cannot find for want of a shard is 502.
					partialForm := failOpen && !strings.HasPrefix(path, "/v1/node")
					switch {
					case pin != head:
						t.Fatalf("%s: %s pinned at %q, want the head %s", stage, path, pin, head)
					case partialForm && (status != http.StatusOK || !parsed.Partial || !slices.Equal(parsed.Missing, []int{1})):
						t.Fatalf("%s: %s = %d: %s; want 200 partial missing shard 1 alone", stage, path, status, body)
					case !partialForm && (status < 500 || !bytes.Contains(body, []byte("shards [1] unavailable"))):
						t.Fatalf("%s: %s = %d: %s; want a 5xx naming shard 1 alone", stage, path, status, body)
					}
				}
			}

			gate := make(chan struct{})
			p := f.procs[1][0]
			p.stop()
			p.boot(t, f.base, gate)
			p.down.Store(false)
			shardOneMissing("shard 1 replaying from 0")
			gate <- struct{}{}
			waitFor(t, 10*time.Second, "shard 1 to apply one record", func() bool {
				return replicaWALGen(t, p) >= 1
			})
			shardOneMissing("shard 1 two records behind")
			close(gate)
			waitFor(t, 10*time.Second, "shard 1 to catch up", func() bool {
				return replicaWALGen(t, p) >= 3
			})
			for _, path := range paths {
				status, pin, body := read(path)
				if status != http.StatusOK || pin != head || (path != "/v1/stats" && !bytes.Equal(body, before[path])) {
					t.Fatalf("shard 1 caught up: %s = %d at %q:\n%s\nbefore:\n%s", path, status, pin, body, before[path])
				}
			}
		})
	}
}

// TestPinnedReadsSurviveStaleLowViews: a router whose view of every
// replica is stale low (a boot probe that caught the whole fleet
// mid-replay, with no probe since) pins reads at the head and asks the
// replicas it has not heard reach it, which answer: reads stay 200 and
// equal to what they were, on a replicated fleet as on a fleet of one.
func TestPinnedReadsSurviveStaleLowViews(t *testing.T) {
	paths := []string{
		"/v1/search?q=sedan&limit=20",
		"/v1/node?phrase=family+sedans",
		"/v1/query/rewrite?q=hybrid+sedans",
	}
	for _, r := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", r), func(t *testing.T) {
			f := newWALFixture(t, 2, r, RouterOptions{})
			for day := 11; day <= 13; day++ {
				postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", fmt.Sprintf(`{"day":%d}`, day), 200)
			}
			for _, row := range f.procs {
				for _, p := range row {
					waitFor(t, 10*time.Second, "every replica to reach the log head", func() bool {
						return replicaWALGen(t, p) >= 3
					})
				}
			}
			before := map[string][]byte{}
			for _, path := range paths {
				status, body := getRaw(t, f.routerTS.Client(), f.routerTS.URL+path)
				if status != http.StatusOK {
					t.Fatalf("%s = %d: %s", path, status, body)
				}
				before[path] = body
			}
			for _, reps := range f.rt.shards {
				for _, rep := range reps {
					rep.applied.Store(0)
				}
			}
			for _, path := range paths {
				if status, body := getRaw(t, f.routerTS.Client(), f.routerTS.URL+path); status != http.StatusOK || !bytes.Equal(body, before[path]) {
					t.Fatalf("%s with every view stale low = %d:\n%s\nbefore:\n%s", path, status, body, before[path])
				}
			}
		})
	}
}

// TestReplicaCatchUpGating: a replica holding an unapplied generation is
// never consulted for reads — the generation gate, not health, is what
// re-admits it.
func TestReplicaCatchUpGating(t *testing.T) {
	f := newWALFixture(t, 1, 2, RouterOptions{
		ProbeInterval: 10 * time.Millisecond,
		WriteTimeout:  2 * time.Second,
	})
	// Rebuild replica B gated: every apply blocks until released.
	gate := make(chan struct{})
	b := f.procs[0][1]
	b.boot(t, f.base, gate)

	// Count reads reaching B while it lags (healthz and /v1/wal are not
	// reads — they are exactly how the router watches a lagging replica).
	var lagReads atomic.Int64
	inner := b.inner
	b.mu.Lock()
	b.inner = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/search" || r.URL.Path == "/v1/node" {
			lagReads.Add(1)
		}
		inner.ServeHTTP(w, r)
	})
	b.mu.Unlock()

	for day := 11; day <= 13; day++ {
		postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", fmt.Sprintf(`{"day":%d}`, day), 200)
	}
	// A (replica 0) is at head; B is stuck at 0. Hammer reads: all must
	// land on A.
	for i := 0; i < 40; i++ {
		getRaw(t, f.routerTS.Client(), f.routerTS.URL+"/v1/search?q=sedan&limit=5")
		getRaw(t, f.routerTS.Client(), f.routerTS.URL+"/v1/node?phrase=family+sedans")
	}
	if n := lagReads.Load(); n > 0 {
		t.Fatalf("%d reads reached the lagging replica", n)
	}
	// Release B, let it catch up, and verify it rejoins the rotation.
	close(gate)
	head := f.headGen()
	waitFor(t, 10*time.Second, "replica B to catch up", func() bool {
		return replicaWALGen(t, b) >= head
	})
	waitFor(t, 10*time.Second, "replica B to rejoin read rotation", func() bool {
		getRaw(t, f.routerTS.Client(), f.routerTS.URL+"/v1/search?q=sedan&limit=5")
		return lagReads.Load() > 0
	})
}

// readOrder is the ranking a read starting now gets: rank at the log
// position the router would pin it to.
func (rt *Router) readOrder(shard int) []*replicaState { return rt.rank(shard, rt.position()) }

// TestReadGateSurvivesOutOfOrderPositions: two responses from one replica
// processed out of order (position h lands, then an older call's h-1) must
// not move the router's view of it backwards — readOrder would drop it as
// "behind the gate" and a read whose only other at-gate replica is down has
// nowhere to go. A position below what the replica had reported before the
// request was even sent is different: that is a restart, and the gate must
// stop trusting it.
func TestReadGateSurvivesOutOfOrderPositions(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	// Each stub replica reports the position the request names; ?hold=1
	// parks the response until released.
	stub := func() string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(walGenHeader, r.URL.Query().Get("pos"))
			if r.URL.Query().Get("hold") != "" {
				close(entered)
				<-release
			}
			io.WriteString(w, "{}\n")
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	rt, err := NewRouter(RouterOptions{Replicas: [][]string{{stub(), stub()}}, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	a, b := rt.shards[0][0], rt.shards[0][1]
	call := func(rep *replicaState, query string) {
		if res := rt.callReplica(context.Background(), 5*time.Second, rep, http.MethodGet, "/healthz?"+query, nil); !res.ok() {
			t.Errorf("stub call %s: status %d, err %v", query, res.status, res.err)
		}
	}
	inOrder := func(rep *replicaState) bool {
		for _, r := range rt.readOrder(0) {
			if r == rep {
				return true
			}
		}
		return false
	}
	const h = 5
	call(a, "pos=4")
	call(b, "pos=5")
	late := make(chan struct{})
	go func() {
		defer close(late)
		call(a, "pos=4&hold=1") // answered at h-1 ...
	}()
	<-entered
	call(a, "pos=5") // ... but processed after the response at h
	close(release)
	<-late
	if got := a.applied.Load(); got != h || !inOrder(a) {
		t.Fatalf("a late h-1 response moved the replica to %d (in read order: %v); want %d and readable", got, inOrder(a), h)
	}
	// Restart without a failed call in between: the next response reports
	// less than the replica had already proven before the request left.
	call(a, "pos=2")
	if got := a.applied.Load(); got != 2 || inOrder(a) {
		t.Fatalf("restarted replica still at %d (in read order: %v); the gate must stop trusting it", got, inOrder(a))
	}
	if !inOrder(b) {
		t.Fatal("the at-gate replica dropped out of read order")
	}
}

// TestReadFailoverRanksAtEachAttempt: a read whose only at-gate replica
// fails fails over to a peer that reached the gate while the call was in
// flight. Under load a read can stall between ranking its replicas and
// sending for longer than a whole ingest; a ranking taken mid-ingest, when
// one replica alone had confirmed the newest record, named only the
// replica a rolling restart stopped next, and the read answered 5xx with
// two caught-up replicas idle.
func TestReadFailoverRanksAtEachAttempt(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	stub := func(holdReads bool) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if holdReads && r.URL.Path == "/v1/search" {
				close(entered)
				<-release
				w.WriteHeader(http.StatusServiceUnavailable) // stopped mid-call
				return
			}
			if pos := r.URL.Query().Get("pos"); pos != "" {
				w.Header().Set(walGenHeader, pos)
			}
			io.WriteString(w, "{}\n")
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	rt, err := NewRouter(RouterOptions{Replicas: [][]string{{stub(true), stub(false), stub(false)}}, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	a, b, c := rt.shards[0][0], rt.shards[0][1], rt.shards[0][2]
	report := func(rep *replicaState, pos int) {
		if res := rt.callReplica(context.Background(), 5*time.Second, rep, http.MethodGet, fmt.Sprintf("/healthz?pos=%d", pos), nil); !res.ok() {
			t.Fatalf("stub call: status %d, err %v", res.status, res.err)
		}
	}
	// Mid-ingest: a alone has confirmed record 5.
	report(a, 5)
	report(b, 4)
	report(c, 4)
	// The read is pinned where a read starting now would be: at 5, which
	// only a has reached.
	ctx := context.WithValue(context.Background(), pinKey{}, rt.position())
	done := make(chan backendResult)
	go func() { done <- rt.call(ctx, 0, http.MethodGet, "/v1/search?q=sedan", nil) }()
	<-entered
	// The ingest completes on b and c; then a goes away.
	report(b, 5)
	report(c, 5)
	close(release)
	if res := <-done; !res.ok() {
		t.Fatalf("read = status %d, err %v; want a caught-up peer to answer after a failed", res.status, res.err)
	}
}

// TestReadOrderRanksDownReplicaLast pins readOrder's two exclusions: of
// four replicas, three at the gate position and one behind it, the one
// that answered 5xx at the gate is ranked after both healthy ones on
// every read (traffic keeps probing it back to recovery), and the one
// behind the gate is never ranked at all.
func TestReadOrderRanksDownReplicaLast(t *testing.T) {
	// Each stub reports the position ?pos= names and answers ?status=.
	stub := func() string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(walGenHeader, r.URL.Query().Get("pos"))
			if code, _ := strconv.Atoi(r.URL.Query().Get("status")); code != 0 {
				w.WriteHeader(code)
			}
			io.WriteString(w, "{}\n")
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	rt, err := NewRouter(RouterOptions{Replicas: [][]string{{stub(), stub(), stub(), stub()}}, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	a, b, down, behind := rt.shards[0][0], rt.shards[0][1], rt.shards[0][2], rt.shards[0][3]
	report := func(rep *replicaState, query string) {
		rt.callReplica(context.Background(), 5*time.Second, rep, http.MethodGet, "/healthz?"+query, nil)
	}
	report(a, "pos=5")
	report(b, "pos=5")
	report(behind, "pos=4")
	// The first 503 marks the replica down and forgets its position; the
	// second reports the gate position again while it stays down.
	report(down, "pos=5&status=503")
	report(down, "pos=5&status=503")
	if !down.down.Load() || down.applied.Load() != 5 {
		t.Fatalf("precondition: replica 2 down=%v at %d, want down at the gate 5", down.down.Load(), down.applied.Load())
	}
	firsts := map[*replicaState]bool{}
	for i := 0; i < 8; i++ {
		order := rt.readOrder(0)
		if len(order) != 3 || order[2] != down || slices.Contains(order, behind) {
			t.Fatalf("read %d: order %v; want both healthy replicas, then the down one, and never the one behind the gate", i, replicaIdxs(order))
		}
		firsts[order[0]] = true
	}
	if !firsts[a] || !firsts[b] {
		t.Fatalf("the rotation never led with one of the healthy replicas: %v", firsts)
	}
}

// replicaIdxs lists the replica ordinals of an order, for failure messages.
func replicaIdxs(order []*replicaState) []int {
	out := make([]int, len(order))
	for i, rep := range order {
		out[i] = rep.idx
	}
	return out
}

// TestIngestBackpressure: once a shard's slowest healthy replica trails
// the log head by more than MaxLag, ingest answers 429 replica_lagging
// with a Retry-After header — and admits writes again once the replica
// drains.
func TestIngestBackpressure(t *testing.T) {
	f := newWALFixture(t, 1, 2, RouterOptions{
		MaxLag:       2,
		WriteTimeout: time.Second,
	})
	gate := make(chan struct{})
	b := f.procs[0][1]
	b.boot(t, f.base, gate)
	// Prime the router's view of B (applied=0) — otherwise the first
	// ingest's lag check sees no healthy-replica positions at all.
	getJSON(t, f.routerTS.Client(), f.routerTS.URL+"/healthz", 200)

	for day := 11; day <= 13; day++ {
		postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", fmt.Sprintf(`{"day":%d}`, day), 200)
	}
	// head=3, B applied=0, lag 3 > MaxLag 2: pushback.
	resp, err := f.routerTS.Client().Post(f.routerTS.URL+"/v1/ingest", "application/json", bytes.NewReader([]byte(`{"day":14}`)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("lagging ingest = %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header")
	}
	assertEnvelope(t, body, codeReplicaLagging)

	close(gate)
	head := f.headGen()
	waitFor(t, 10*time.Second, "replica B to drain", func() bool {
		return replicaWALGen(t, b) >= head
	})
	// The router learns B's position only from B's own responses, and the
	// long polls of the earlier acks may still be in flight: its /healthz
	// fan-out reads B at the head before the lag check runs.
	getJSON(t, f.routerTS.Client(), f.routerTS.URL+"/healthz", 200)
	postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", `{"day":14}`, 200)
}

// TestIngestAppendFailure: when the fleet log cannot take a batch, the
// router cannot know whether replicas will see it, so it answers 503
// unavailable — never a partial-apply report — and every later ingest
// gets the same answer. /healthz reports the stopped log, and compaction
// leaves it alone.
func TestIngestAppendFailure(t *testing.T) {
	var logged atomic.Int32
	f := newWALFixture(t, 2, 1, RouterOptions{Logf: func(string, ...any) { logged.Add(1) }})
	postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", `{"day":11}`, 200)
	f.rt.log.Close() // every later write to the file fails
	for day := 12; day <= 13; day++ {
		status, body := postRaw(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", fmt.Sprintf(`{"day":%d}`, day))
		if status != http.StatusServiceUnavailable {
			t.Fatalf("day %d: ingest over a failed log = %d, want 503: %s", day, status, body)
		}
		assertEnvelope(t, body, codeUnavailable)
	}
	h := getJSON(t, f.routerTS.Client(), f.routerTS.URL+"/healthz", 200)
	if h["status"] != "degraded" || h["wal_error"] == nil {
		t.Fatalf("healthz over a failed log: status %v, wal_error %v", h["status"], h["wal_error"])
	}
	before := logged.Load()
	f.rt.compactOnce()
	if n := logged.Load() - before; n != 0 {
		t.Fatalf("compaction over a failed log logged %d lines, want none", n)
	}
}

// forceCheckpoint rolls a checkpoint on a replica synchronously (POST
// /v1/checkpoint) and returns the covered log position.
func forceCheckpoint(t *testing.T, p *replicaProc) uint64 {
	t.Helper()
	status, body := postRaw(t, p.outer.Client(), p.outer.URL+"/v1/checkpoint", "")
	if status != http.StatusOK {
		t.Fatalf("shard %d replica %d: POST /v1/checkpoint = %d: %s", p.shard, p.idx, status, body)
	}
	var parsed struct {
		CheckpointGen uint64 `json:"checkpoint_gen"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatalf("checkpoint response: %v: %s", err, body)
	}
	return parsed.CheckpointGen
}

// restartReplica stops p, reboots it (hydrating when checkpointing is
// enabled) and waits for it to catch up to the log head.
func (f *walFixture) restartReplica(t *testing.T, p *replicaProc) {
	t.Helper()
	p.stop()
	p.boot(t, f.base, nil)
	p.down.Store(false)
	head := f.headGen()
	waitFor(t, 10*time.Second, fmt.Sprintf("shard %d replica %d to catch up", p.shard, p.idx), func() bool {
		if errp := p.runErr.Load(); errp != nil {
			t.Fatalf("shard %d replica %d follower died: %v", p.shard, p.idx, *errp)
		}
		return replicaWALGen(t, p) >= head
	})
}

// TestCheckpointReplayEquivalence is the compaction tentpole's pin: for
// K ∈ {1, 2}, a replica that boots from a checkpoint artifact and tails
// only the log suffix serves byte-identical worlds — responses AND
// generation accounting — to the single-process reference, at every
// stage: after a plain checkpointed restart, and after the log has been
// truncated below the checkpoint (where full replay is impossible and
// hydration is the only way back).
func TestCheckpointReplayEquivalence(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			f := newCkptWALFixture(t, k, 1, 2, RouterOptions{})
			ref := newRefWorld(t, f.base, scripted(f.base.Union(), detDelta), Options{})

			probes := []string{
				"/v1/search?q=sedan&limit=10",
				"/v1/search?q=recall&limit=5",
				"/v1/node?phrase=family+sedans",
				"/v1/node?phrase=family+sedans&type=concept",
				"/v1/node?phrase=hybrid+sedans+12&type=concept",
				"/v1/node?phrase=sedan+recall+wave+14",
			}
			assertSame := func(stage string) {
				t.Helper()
				for _, path := range probes {
					refStatus, refBody := getRaw(t, ref.Client(), ref.URL+path)
					gotStatus, gotBody := getRaw(t, f.routerTS.Client(), f.routerTS.URL+path)
					if refStatus != gotStatus || !bytes.Equal(refBody, gotBody) {
						t.Fatalf("k=%d %s: %s diverges: status %d vs %d\nrouter: %s\nref:    %s",
							k, stage, path, gotStatus, refStatus, gotBody, refBody)
					}
				}
			}
			ingest := func(day int) {
				t.Helper()
				body := fmt.Sprintf(`{"day":%d}`, day)
				refResp := ref.step(body)
				gotResp := postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", body, 200)
				if !reflect.DeepEqual(refResp["shard_generations"], gotResp["shard_generations"]) {
					t.Fatalf("k=%d day %d: shard generations diverge: %v vs %v",
						k, day, gotResp["shard_generations"], refResp["shard_generations"])
				}
			}

			for day := 11; day <= 14; day++ {
				ingest(day)
			}
			// Roll a checkpoint on every replica at the current head, then
			// keep writing so a real suffix exists past the artifact.
			for s := 0; s < k; s++ {
				if got, want := forceCheckpoint(t, f.procs[s][0]), f.headGen(); got != want {
					t.Fatalf("shard %d checkpoint covers %d, head is %d", s, got, want)
				}
			}
			for day := 15; day <= 16; day++ {
				ingest(day)
			}
			assertSame("before restart")

			// Checkpointed restart: hydrate the artifact, tail the suffix.
			for s := 0; s < k; s++ {
				f.restartReplica(t, f.procs[s][0])
			}
			assertSame("after checkpointed restart")

			// Generation continuity: the next ingest must report the same
			// shard generations on both sides (the hydrated replica serves
			// the artifact's vector entry, not 0).
			ingest(17)
			assertSame("after post-restart ingest")

			// Truncate each log below its checkpoint floor and restart
			// again: replay-from-zero is now impossible (ErrCompacted), so
			// only the hydration path can produce these identical worlds.
			for s := 0; s < k; s++ {
				meta, err := wal.ReadCheckpointMeta(wal.CheckpointPath(f.walDir))
				if err != nil {
					t.Fatalf("shard %d checkpoint meta: %v", s, err)
				}
				if err := f.rt.log.TruncateBelow(meta.WALGen); err != nil {
					t.Fatalf("shard %d truncate below %d: %v", s, meta.WALGen, err)
				}
				if base := f.rt.log.BaseGen(); base != meta.WALGen {
					t.Fatalf("shard %d: base %d after truncating below %d", s, base, meta.WALGen)
				}
			}
			for s := 0; s < k; s++ {
				f.restartReplica(t, f.procs[s][0])
			}
			assertSame("after truncation + restart")
			ingest(18)
			assertSame("after post-truncation ingest")
		})
	}
}

// TestFleetCheckpointHydratesEveryShard: the fleet has one checkpoint,
// and a replica of any shard can boot from it. Only shard 0's replica
// rolls one; the log is then truncated below it, so shard 1's replica can
// rejoin through that artifact alone — resuming its own shard's serving
// generation from the artifact's vector, and staying byte-identical to
// the single-process reference. The log directory holds one log and one
// checkpoint, nothing per shard.
func TestFleetCheckpointHydratesEveryShard(t *testing.T) {
	f := newCkptWALFixture(t, 2, 1, 1<<20, RouterOptions{}) // checkpoint boots on, no cadence rolls
	ref := newRefWorld(t, f.base, scripted(f.base.Union(), detDelta), Options{})

	var refGens any
	ingest := func(day int) {
		t.Helper()
		body := fmt.Sprintf(`{"day":%d}`, day)
		refResp := ref.step(body)
		gotResp := postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", body, 200)
		if !reflect.DeepEqual(refResp["shard_generations"], gotResp["shard_generations"]) {
			t.Fatalf("day %d: shard generations diverge: %v vs %v", day, gotResp["shard_generations"], refResp["shard_generations"])
		}
		refGens = refResp["shard_generations"]
	}
	for day := 11; day <= 14; day++ {
		ingest(day)
	}
	covered := forceCheckpoint(t, f.procs[0][0])
	if covered != f.headGen() {
		t.Fatalf("shard 0's checkpoint covers %d, head is %d", covered, f.headGen())
	}
	ingest(15)
	if err := f.rt.log.TruncateBelow(covered); err != nil {
		t.Fatalf("truncate below %d: %v", covered, err)
	}

	p := f.procs[1][0]
	f.restartReplica(t, p)
	var pos struct {
		Generation    uint64 `json:"generation"`
		CheckpointGen uint64 `json:"checkpoint_gen"`
	}
	_, body := getRaw(t, p.outer.Client(), p.outer.URL+"/v1/wal")
	if err := json.Unmarshal(body, &pos); err != nil {
		t.Fatalf("/v1/wal: %v: %s", err, body)
	}
	if pos.CheckpointGen == 0 {
		t.Fatal("shard 1's replica reports checkpoint_gen 0: it did not hydrate the fleet checkpoint")
	}
	if want := uint64(refGens.([]any)[1].(float64)); pos.Generation != want {
		t.Fatalf("shard 1's replica resumed at serving generation %d, want %d", pos.Generation, want)
	}

	ingest(16)
	for _, path := range []string{
		"/v1/search?q=sedan&limit=10",
		"/v1/search?q=recall&limit=5",
		"/v1/node?phrase=family+sedans",
		"/v1/node?phrase=hybrid+sedans+16&type=concept",
		"/v1/node?phrase=sedan+recall+wave+15",
	} {
		refStatus, refBody := getRaw(t, ref.Client(), ref.URL+path)
		gotStatus, gotBody := getRaw(t, f.routerTS.Client(), f.routerTS.URL+path)
		if refStatus != gotStatus || !bytes.Equal(refBody, gotBody) {
			t.Fatalf("%s diverges after the cross-shard hydration:\nrouter: %s\nref:    %s", path, gotBody, refBody)
		}
	}

	entries, err := os.ReadDir(f.walDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	for _, name := range names {
		if name != "fleet.wal" && !strings.HasPrefix(name, "fleet.ckpt") {
			t.Fatalf("log directory holds %q besides the fleet log and checkpoint: %v", name, names)
		}
	}
	if !slices.Contains(names, "fleet.wal") || !slices.Contains(names, "fleet.ckpt") {
		t.Fatalf("log directory lacks the fleet log or checkpoint: %v", names)
	}
}

// TestGenerationIsLastChangingLogPosition pins the one clock on a K=2
// fleet with cadence checkpoints: every replica's generation, in /healthz
// and in X-Giant-Generation alike, is the log position of the last batch
// whose touched_shards named its shard (0 before any). A rejected batch
// moves no shard, and a replica hydrated from a mid-run checkpoint
// reports what its peer, which replayed the whole log, reports.
func TestGenerationIsLastChangingLogPosition(t *testing.T) {
	f := newCkptWALFixture(t, 2, 2, 4, RouterOptions{})
	want := make([]uint64, 2) // want[s]: the last log position whose batch touched shard s
	assertGens := func(stage string) {
		t.Helper()
		head := f.headGen()
		for s, row := range f.procs {
			for _, p := range row {
				waitFor(t, 10*time.Second, fmt.Sprintf("shard %d replica %d to apply %d", s, p.idx, head), func() bool {
					return replicaWALGen(t, p) >= head
				})
				resp, err := p.outer.Client().Get(p.outer.URL + "/healthz")
				if err != nil {
					t.Fatal(err)
				}
				var h struct {
					Generation uint64 `json:"generation"`
				}
				err = json.NewDecoder(resp.Body).Decode(&h)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if hdr := resp.Header.Get(genHeader); h.Generation != want[s] || hdr != strconv.FormatUint(want[s], 10) {
					t.Fatalf("%s: shard %d replica %d at generation %d (header %q), want %d", stage, s, p.idx, h.Generation, hdr, want[s])
				}
			}
		}
	}
	untouched := 0
	// Odd days add a concept and an event, one homed on each shard; even
	// days add one concept, which leaves the other shard untouched.
	ingest := func(day int) {
		t.Helper()
		body := fmt.Sprintf(`{"day":%d}`, day)
		if day%2 == 0 {
			body = fmt.Sprintf(`{"day":%d,"clicks":[{"query":"gadget deals %d","doc_id":0,"clicks":1,"day":%d}]}`, day, day, day)
		}
		out := postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", body, 200)
		pos := uint64(out["wal_generations"].([]any)[0].(float64))
		touched := out["touched_shards"].([]any)
		for _, s := range touched {
			want[int(s.(float64))] = pos
		}
		untouched += 2 - len(touched)
		assertGens(fmt.Sprintf("day %d at log position %d", day, pos))
	}

	assertGens("fresh fleet")
	for day := 11; day <= 18; day++ {
		ingest(day)
	}
	postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", `{"day":0}`, http.StatusUnprocessableEntity)
	assertGens("after a rejected batch")
	if untouched == 0 {
		t.Fatal("every batch touched both shards: nothing checked that an untouched shard keeps its generation")
	}
	// The cadence rolls at 4 and then 8 (or 9, if the first publish was
	// still in flight at 8). Day 18 at 8 left shard 0 untouched, so the
	// artifact puts shard 0 at 7, below the position it covers.
	var meta wal.CheckpointMeta
	waitFor(t, 10*time.Second, "a cadence checkpoint covering day 18", func() bool {
		var err error
		meta, err = wal.ReadCheckpointMeta(wal.CheckpointPath(f.walDir))
		return err == nil && meta.WALGen >= 8
	})
	if meta.ServingGens[0] != want[0] || want[0] >= meta.WALGen {
		t.Fatalf("checkpoint %+v, want shard 0 at %d, below the covered position", meta, want[0])
	}
	// Below the checkpoint a replay from zero is impossible, so replica 0
	// of each shard comes back only by hydrating it.
	if err := f.rt.log.TruncateBelow(meta.WALGen); err != nil {
		t.Fatalf("truncate below %d: %v", meta.WALGen, err)
	}
	for s := range f.procs {
		f.restartReplica(t, f.procs[s][0])
	}
	assertGens("after the checkpointed restart")
	ingest(19)
	ingest(20)
}

// TestWALWaitDeadline: a wait for a log position nobody applies ends at
// its deadline — in walState.waitFor, in GET /v1/wal?wait=, and in the
// router's quorum wait, which answers 502 shard_unavailable naming the
// shard — while a wait that an apply reaches returns as soon as it lands.
func TestWALWaitDeadline(t *testing.T) {
	ws := newWALState(0, 0)
	if ws.waitFor(1, time.Millisecond) {
		t.Fatal("waitFor reported an unapplied position as reached")
	}
	go ws.advance(1, http.StatusOK, nil)
	if !ws.waitFor(1, time.Minute) {
		t.Fatal("waitFor missed the apply that reached its position")
	}

	// A replica whose follower never runs applies nothing.
	base, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewShard(base.Projection(0), Options{ShardIngest: scripted(base.Union(), detDelta)})
	walDir := t.TempDir()
	if _, err := NewFollower(srv, FollowerOptions{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(srv.Handler())
	t.Cleanup(replica.Close)
	if pos := getJSON(t, replica.Client(), replica.URL+"/v1/wal?wait=1&timeout_ms=1", 200); pos["applied"] != false {
		t.Fatalf("/v1/wal past its deadline = %v, want applied=false", pos)
	}
	rt, err := NewRouter(RouterOptions{Backends: []string{replica.URL}, WALDir: walDir, WriteTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)
	status, body := postRaw(t, router.Client(), router.URL+"/v1/ingest", `{"day":12}`)
	if status != http.StatusBadGateway {
		t.Fatalf("unconfirmed ingest = %d, want 502: %s", status, body)
	}
	assertEnvelope(t, body, codeShardUnavailable)
	if !bytes.Contains(body, []byte("apply wait timed out")) {
		t.Fatalf("unconfirmed ingest does not name the timed-out wait: %s", body)
	}
}

// TestHydrateShardBounds: a shard outside [0, shards) is an error before
// any artifact is read, not a panic on the generation vector; a shard in
// range hydrates the same artifact at its own vector entry.
func TestHydrateShardBounds(t *testing.T) {
	base, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), 2)
	if err != nil {
		t.Fatal(err)
	}
	snap, blob, err := (&detShardHost{lineage{cur: base.Union()}}).save()
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := ontology.EncodeSnapshotBinary(&enc, snap, 3); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := wal.PublishCheckpoint(dir, &wal.Checkpoint{
		CheckpointMeta: wal.CheckpointMeta{WALGen: 3, ServingGens: []uint64{3, 2}},
		Snapshot:       enc.Bytes(),
		State:          blob,
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		shard   int
		wantErr bool
		wantGen uint64
	}{
		{shard: -1, wantErr: true},
		{shard: 2, wantErr: true},
		{shard: 0, wantGen: 3},
		{shard: 1, wantGen: 2},
	} {
		host := &detShardHost{lineage{cur: base.Union()}}
		restored := false
		opts := Options{CheckpointRestore: func(s *ontology.Snapshot, st []byte) error {
			restored = true
			return host.restore(s, st)
		}}
		srv, _, err := HydrateShard(dir, tc.shard, 2, opts, nil)
		if tc.wantErr {
			if err == nil || srv != nil || restored {
				t.Fatalf("shard %d of 2: server %v, err %v, restored %v; want an error before any restore", tc.shard, srv, err, restored)
			}
			continue
		}
		if err != nil || srv == nil || srv.Generation() != tc.wantGen {
			t.Fatalf("shard %d of 2: server %v, err %v; want generation %d", tc.shard, srv, err, tc.wantGen)
		}
	}
}

// TestCheckpointRefusesDivergedGenerations: a follower whose own entry of
// the generation vector disagrees with its server publishes nothing and
// says why — the other entries follow the same rule, so an artifact built
// from them could resume another shard at a wrong generation.
func TestCheckpointRefusesDivergedGenerations(t *testing.T) {
	base, err := ontology.ShardSnapshot(testOntology(0).Snapshot(), 2)
	if err != nil {
		t.Fatal(err)
	}
	host := &detShardHost{lineage{cur: base.Union()}}
	srv := NewShard(base.Projection(0), Options{ShardIngest: host.ingest(nil), CheckpointSave: host.save, CheckpointRestore: host.restore})
	dir := t.TempDir()
	var logged sync.Map
	fl, err := NewFollower(srv, FollowerOptions{
		Dir:   dir,
		Poll:  time.Millisecond,
		Logf:  func(format string, args ...any) { logged.Store(fmt.Sprintf(format, args...), true) },
		Start: wal.CheckpointMeta{ServingGens: []uint64{5, 0}}, // the server is at generation 0
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); fl.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	status, body := postRaw(t, ts.Client(), ts.URL+"/v1/checkpoint", "")
	if status != http.StatusInternalServerError || !strings.Contains(string(body), "refusing") {
		t.Fatalf("checkpoint with a diverged vector = %d: %s", status, body)
	}
	if _, err := os.Stat(wal.CheckpointPath(dir)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a checkpoint was published anyway (stat: %v)", err)
	}
	refused := false
	logged.Range(func(line, _ any) bool {
		refused = refused || strings.Contains(line.(string), "refusing")
		return !refused
	})
	if !refused {
		t.Fatal("the refusal was not logged")
	}
}

// TestCheckpointCrashLadder drives the boot ladder through injected
// checkpoint-write crashes: a corrupt primary artifact falls back to the
// rotated previous one, both corrupt falls back to full replay, and both
// corrupt WITH a truncated log — the only unrecoverable combination —
// stops the follower without ever acking a wrong world.
func TestCheckpointCrashLadder(t *testing.T) {
	f := newCkptWALFixture(t, 1, 1, 2, RouterOptions{})
	ref := newRefWorld(t, f.base, scripted(f.base.Union(), detDelta), Options{})

	p := f.procs[0][0]
	ingest := func(day int) {
		t.Helper()
		body := fmt.Sprintf(`{"day":%d}`, day)
		ref.step(body)
		postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", body, 200)
	}
	assertSame := func(stage string) {
		t.Helper()
		for _, path := range []string{"/v1/search?q=sedan&limit=10", "/v1/node?phrase=family+sedans"} {
			refStatus, refBody := getRaw(t, ref.Client(), ref.URL+path)
			gotStatus, gotBody := getRaw(t, f.routerTS.Client(), f.routerTS.URL+path)
			if refStatus != gotStatus || !bytes.Equal(refBody, gotBody) {
				t.Fatalf("%s: %s diverges\nrouter: %s\nref:    %s", stage, path, gotBody, refBody)
			}
		}
	}

	// Two checkpoints at different positions so the rotation slot holds a
	// usable older artifact: primary covers 4, previous covers 2.
	ingest(11)
	ingest(12)
	if got := forceCheckpoint(t, p); got != 2 {
		t.Fatalf("first checkpoint covers %d, want 2", got)
	}
	ingest(13)
	ingest(14)
	if got := forceCheckpoint(t, p); got != 4 {
		t.Fatalf("second checkpoint covers %d, want 4", got)
	}

	primary := wal.CheckpointPath(f.walDir)
	prev := wal.PrevCheckpointPath(f.walDir)
	corrupt := func(path string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A torn write: the file ends mid-artifact.
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Rung 2: primary torn mid-write, previous intact. The boot must land
	// on the previous artifact (covers 2) and replay 3..4 from the log.
	corrupt(primary)
	f.restartReplica(t, p)
	assertSame("after fallback to previous checkpoint")

	// Repair the artifacts at the current position for the next scenario.
	if got := forceCheckpoint(t, p); got != 4 {
		t.Fatalf("repair checkpoint covers %d, want 4", got)
	}

	// Rung 3: both artifacts torn, log intact: full replay from zero.
	corrupt(primary)
	corrupt(prev)
	f.restartReplica(t, p)
	assertSame("after fallback to full replay")

	// Unrecoverable: both artifacts torn AND the log truncated. The boot
	// falls to full replay, which must stop at ErrCompacted — the replica
	// never acks a generation it could only have guessed at.
	if got := forceCheckpoint(t, p); got != 4 {
		t.Fatalf("checkpoint covers %d, want 4", got)
	}
	if err := f.rt.log.TruncateBelow(2); err != nil {
		t.Fatal(err)
	}
	corrupt(primary)
	corrupt(prev)
	p.stop()
	p.boot(t, f.base, nil)
	p.down.Store(false)
	waitFor(t, 10*time.Second, "follower to stop on the compacted log", func() bool {
		return p.runErr.Load() != nil
	})
	if err := *p.runErr.Load(); !errors.Is(err, wal.ErrCompacted) {
		t.Fatalf("follower stopped with %v, want ErrCompacted", err)
	}
	if gen := replicaWALGen(t, p); gen != 0 {
		t.Fatalf("unrecoverable replica acked generation %d", gen)
	}
}

// TestRouterCompaction: with RouterOptions.Compact, the prober truncates
// the log below the fleet-wide applied floor — but never past
// the published checkpoint — and a replica killed before the truncation
// rejoins from the artifact. /healthz surfaces the wal block.
func TestRouterCompaction(t *testing.T) {
	f := newCkptWALFixture(t, 1, 2, 2, RouterOptions{
		Compact:       true,
		ProbeInterval: 10 * time.Millisecond,
		WriteTimeout:  10 * time.Second,
	})
	for day := 11; day <= 16; day++ {
		postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", fmt.Sprintf(`{"day":%d}`, day), 200)
	}
	// Cadence rolls (every 2 gens) publish asynchronously; the prober then
	// drives the log base up to min(applied floor, checkpoint floor).
	waitFor(t, 10*time.Second, "the prober to truncate the log", func() bool {
		return f.rt.log.BaseGen() > 0
	})
	base := f.rt.log.BaseGen()
	meta, err := wal.ReadCheckpointMeta(wal.CheckpointPath(f.walDir))
	if err != nil {
		t.Fatalf("checkpoint meta after compaction: %v", err)
	}
	if base > meta.WALGen {
		t.Fatalf("log truncated to base %d, past the checkpoint floor %d", base, meta.WALGen)
	}

	// A replica restarting over the compacted log can only rejoin through
	// the artifact; it must catch up and answer reads consistently with
	// its sibling.
	f.restartReplica(t, f.procs[0][1])
	a, b := f.procs[0][0], f.procs[0][1]
	// An ingest is acked at a quorum of one replica in two, so the sibling
	// that kept running may itself still be a poll behind the head.
	waitFor(t, 10*time.Second, "the running replica to reach the log head", func() bool {
		return replicaWALGen(t, a) >= f.headGen()
	})
	for _, path := range []string{"/v1/search?q=sedan&limit=10", "/v1/node?phrase=family+sedans"} {
		aStatus, aBody := getRaw(t, a.outer.Client(), a.outer.URL+path)
		bStatus, bBody := getRaw(t, b.outer.Client(), b.outer.URL+path)
		if aStatus != bStatus || !bytes.Equal(aBody, bBody) {
			t.Fatalf("%s diverges across replicas after compacted rejoin:\nA: %s\nB: %s", path, aBody, bBody)
		}
	}

	// The router's health view carries the compaction state.
	health := getJSON(t, f.routerTS.Client(), f.routerTS.URL+"/healthz", 200)
	walBlock, ok := health["wal"].([]any)
	if !ok || len(walBlock) != 1 {
		t.Fatalf("healthz wal block missing or malformed: %v", health["wal"])
	}
	entry := walBlock[0].(map[string]any)
	for _, field := range []string{"shard", "head", "base", "applied_floor", "checkpoint_gen"} {
		if _, ok := entry[field]; !ok {
			t.Fatalf("healthz wal entry lacks %q: %v", field, entry)
		}
	}
}

// TestCompactOnceAtUnchangedFloor: a compaction pass whose floor has not
// moved since the last cut cuts nothing. The first pass truncates the log
// below the checkpoint; the second, at the same floor, leaves the base,
// the head and the log file as they were.
func TestCompactOnceAtUnchangedFloor(t *testing.T) {
	f := newCkptWALFixture(t, 1, 1, 1<<20, RouterOptions{}) // no prober, no cadence rolls
	for day := 11; day <= 14; day++ {
		postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", fmt.Sprintf(`{"day":%d}`, day), 200)
	}
	covered := forceCheckpoint(t, f.procs[0][0])
	f.rt.compactOnce()
	base, head := f.rt.log.BaseGen(), f.headGen()
	if base != covered {
		t.Fatalf("first pass cut below %d, want the checkpoint's %d", base, covered)
	}
	before, err := os.ReadFile(wal.LogPath(f.walDir))
	if err != nil {
		t.Fatal(err)
	}
	f.rt.compactOnce()
	after, err := os.ReadFile(wal.LogPath(f.walDir))
	if err != nil {
		t.Fatal(err)
	}
	if f.rt.log.BaseGen() != base || f.headGen() != head || !bytes.Equal(before, after) {
		t.Fatalf("second pass at floor %d moved the log: base %d→%d, head %d→%d, file changed %v",
			base, base, f.rt.log.BaseGen(), head, f.headGen(), !bytes.Equal(before, after))
	}
}

// TestRouterCompactionPrunesMinedOutcomes: the router's log cut takes the
// mined outcomes (and bare claims) of the records it drops with it, and
// leaves those of the records it keeps.
func TestRouterCompactionPrunesMinedOutcomes(t *testing.T) {
	f := newCkptWALFixture(t, 1, 2, 2, RouterOptions{
		Compact:       true,
		ProbeInterval: 10 * time.Millisecond,
		WriteTimeout:  10 * time.Second,
	})
	for day := 11; day <= 16; day++ {
		// The next record's outcome exists before the record does, so none
		// can appear behind a cut.
		o := &wal.Outcome{Dir: f.walDir, Gen: f.headGen() + 1, Payload: []byte("batch")}
		if _, claimed := o.Take(); !claimed {
			t.Fatalf("record %d: no claim", o.Gen)
		}
		if day%2 == 0 {
			if err := o.Publish([]byte("mined")); err != nil {
				t.Fatal(err)
			}
		}
		postJSON(t, f.routerTS.Client(), f.routerTS.URL+"/v1/ingest", fmt.Sprintf(`{"day":%d}`, day), 200)
	}
	waitFor(t, 10*time.Second, "the prober to truncate the log", func() bool {
		return f.rt.log.BaseGen() > 0
	})
	base, head := f.rt.log.BaseGen(), f.headGen()
	for g := uint64(1); g <= head; g++ {
		_, err := os.Stat(wal.OutcomePath(f.walDir, g))
		if g <= base && !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("record %d's outcome survived the cut at %d (stat: %v)", g, base, err)
		}
		if g > base && err != nil && g > f.rt.log.BaseGen() { // the prober may cut again meanwhile
			t.Fatalf("record %d's outcome is gone after the cut at %d: %v", g, base, err)
		}
	}
}

// postRaw posts a JSON body and returns the verbatim status and body.
func postRaw(t *testing.T, c *http.Client, url, body string) (int, []byte) {
	t.Helper()
	resp, err := c.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read: %v", url, err)
	}
	return resp.StatusCode, out
}

// knownErrorCodes is the closed set of machine codes the /v1 contract
// may emit.
var knownErrorCodes = map[string]bool{
	codeInvalidArgument: true, codeInvalidLimit: true, codeInvalidBatch: true,
	codeNotFound: true, codeMethodNotAllowed: true, codeUnavailable: true,
	codeShardUnavailable: true, codeReplicaLagging: true,
	codeReadOnlyReplica: true, codeBadUpstream: true,
	codeInternal: true, codePayloadTooLarge: true,
}

// assertEnvelope asserts a body is the unified error envelope; wantCode,
// when non-empty, pins the exact machine code.
func assertEnvelope(t *testing.T, body []byte, wantCode string) {
	t.Helper()
	var parsed struct {
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil || parsed.Error == nil {
		t.Fatalf("not an error envelope: %s", body)
	}
	if !knownErrorCodes[parsed.Error.Code] {
		t.Fatalf("unknown error code %q: %s", parsed.Error.Code, body)
	}
	if parsed.Error.Message == "" {
		t.Fatalf("empty error message: %s", body)
	}
	if wantCode != "" && parsed.Error.Code != wantCode {
		t.Fatalf("error code %q, want %q: %s", parsed.Error.Code, wantCode, body)
	}
}

// TestErrorEnvelope sweeps every /v1 error path across the serving
// modes and asserts each response is the unified envelope with the
// expected machine code.
func TestErrorEnvelope(t *testing.T) {
	snap := testOntology(0).Snapshot()

	type probe struct {
		method, path, body string
		wantStatus         int
		wantCode           string
	}
	readProbes := []probe{
		{"GET", "/v1/node", "", 400, codeInvalidArgument},
		{"GET", "/v1/node?id=abc", "", 400, codeInvalidArgument},
		{"GET", "/v1/node?phrase=x&type=nope", "", 400, codeInvalidArgument},
		{"GET", "/v1/node?phrase=no+such+node+anywhere", "", 404, codeNotFound},
		{"GET", "/v1/search", "", 400, codeInvalidArgument},
		{"GET", "/v1/search?q=sedan&limit=0", "", 400, codeInvalidLimit},
		{"GET", "/v1/search?q=sedan&limit=x", "", 400, codeInvalidLimit},
		{"GET", "/v1/search?q=sedan&scatter=bogus", "", 400, codeInvalidArgument},
		// A whole-world server is frozen: it reads no ingest body.
		{"POST", "/v1/ingest", "{nope", 503, codeUnavailable},
		{"POST", "/v1/ingest", `{"day":0}`, 503, codeUnavailable},
		{"GET", "/v1/ingest", "", 405, codeMethodNotAllowed},
		{"POST", "/v1/reload", "", 404, codeNotFound},
		{"POST", "/v1/rollback", "", 404, codeNotFound},
	}
	runProbes := func(t *testing.T, ts *httptest.Server, probes []probe) {
		t.Helper()
		for _, p := range probes {
			var status int
			var body []byte
			if p.method == "GET" {
				status, body = getRaw(t, ts.Client(), ts.URL+p.path)
			} else {
				status, body = postRaw(t, ts.Client(), ts.URL+p.path, p.body)
			}
			if status != p.wantStatus {
				t.Fatalf("%s %s = %d, want %d: %s", p.method, p.path, status, p.wantStatus, body)
			}
			assertEnvelope(t, body, p.wantCode)
		}
	}

	t.Run("single", func(t *testing.T) {
		ts := httptest.NewServer(New(snap, Options{}).Handler())
		t.Cleanup(ts.Close)
		runProbes(t, ts, readProbes)
	})

	t.Run("sharded", func(t *testing.T) {
		ss, err := ontology.ShardSnapshot(snap, 2)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewSharded(ss, Options{}).Handler())
		t.Cleanup(ts.Close)
		runProbes(t, ts, readProbes)
	})

	t.Run("shard-backend", func(t *testing.T) {
		ss, err := ontology.ShardSnapshot(snap, 2)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewShard(ss.Projection(0), Options{}).Handler())
		t.Cleanup(ts.Close)
		// A shard backend 404s nodes homed elsewhere; keep only probes
		// that are shard-local deterministic. It accepts no direct write.
		runProbes(t, ts, []probe{
			{"GET", "/v1/node", "", 400, codeInvalidArgument},
			{"GET", "/v1/node?id=abc", "", 400, codeInvalidArgument},
			{"GET", "/v1/node?phrase=no+such+node+anywhere", "", 404, codeNotFound},
			{"GET", "/v1/search?q=sedan&limit=0", "", 400, codeInvalidLimit},
			{"GET", "/v1/ingest", "", 405, codeMethodNotAllowed},
			{"POST", "/v1/ingest", "{nope", 503, codeUnavailable},
			{"POST", "/v1/reload", "", 404, codeNotFound},
			{"POST", "/v1/rollback", "", 404, codeNotFound},
			{"GET", "/v1/wal?wait=1", "", 404, codeNotFound},
		})
	})

	t.Run("read-only-router", func(t *testing.T) {
		ss, err := ontology.ShardSnapshot(snap, 2)
		if err != nil {
			t.Fatal(err)
		}
		urls := make([]string, 2)
		for i := range urls {
			ts := httptest.NewServer(NewShard(ss.Projection(i), Options{}).Handler())
			t.Cleanup(ts.Close)
			urls[i] = ts.URL
		}
		rt, err := NewRouter(RouterOptions{Backends: urls})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		ts := httptest.NewServer(rt.Handler())
		t.Cleanup(ts.Close)
		// Without a delta log the router has no write path at all.
		runProbes(t, ts, []probe{
			{"GET", "/v1/ingest", "", 405, codeMethodNotAllowed},
			{"POST", "/v1/ingest", `{"day":12}`, 503, codeUnavailable},
			{"POST", "/v1/reload", "", 404, codeNotFound},
			{"POST", "/v1/rollback", "", 404, codeNotFound},
		})
	})

	t.Run("router", func(t *testing.T) {
		f := newWALFixture(t, 2, 1, RouterOptions{})
		runProbes(t, f.routerTS, []probe{
			{"GET", "/v1/node", "", 400, codeInvalidArgument},
			{"GET", "/v1/node?id=abc", "", 400, codeInvalidArgument},
			{"GET", "/v1/node?phrase=x&type=nope", "", 400, codeInvalidArgument},
			{"GET", "/v1/node?phrase=no+such+node+anywhere", "", 404, codeNotFound},
			{"GET", "/v1/search", "", 400, codeInvalidArgument},
			{"GET", "/v1/search?q=sedan&limit=0", "", 400, codeInvalidLimit},
			{"GET", "/v1/search?q=sedan&scatter=bogus", "", 400, codeInvalidArgument},
			{"GET", "/v1/ingest", "", 405, codeMethodNotAllowed},
			{"POST", "/v1/ingest", "{nope", 400, codeInvalidArgument},
			{"POST", "/v1/ingest", `{"day":0}`, 422, codeInvalidBatch},
		})
		// Kill a shard: point routes 502, fail-closed fan-outs 503.
		f.procs[1][0].down.Store(true)
		st, body := getRaw(t, f.routerTS.Client(), f.routerTS.URL+"/v1/stats")
		if st != 503 {
			t.Fatalf("fail-closed stats with dead shard = %d: %s", st, body)
		}
		assertEnvelope(t, body, codeShardUnavailable)
	})
}

// TestWriteBodyBound: every endpoint that reads a request body stops at
// maxBodyBytes. A body one byte past the limit answers 413
// payload_too_large in the unified envelope without reaching the ingester
// or moving any generation; a valid body of exactly the limit is served.
func TestWriteBodyBound(t *testing.T) {
	snap := testOntology(0).Snapshot()
	ss, err := ontology.ShardSnapshot(snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	var applied atomic.Int64
	single := httptest.NewServer(New(snap, Options{}).Handler())
	t.Cleanup(single.Close)
	urls := make([]string, 2)
	walDir := t.TempDir()
	for i := range urls {
		ingest := scripted(ss.Union(), detDelta)
		srv := NewShard(ss.Projection(i), Options{
			ShardIngest: func(b delta.Batch, rec wal.Record) (*ontology.Snapshot, *ontology.Snapshot, *delta.Delta, error) {
				applied.Add(1)
				return ingest(b, rec)
			},
		})
		followLog(t, walDir, srv)
		back := httptest.NewServer(srv.Handler())
		t.Cleanup(back.Close)
		urls[i] = back.URL
	}
	rt, err := NewRouter(RouterOptions{Backends: urls, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)

	// padded is one JSON object of exactly n bytes: the filler is
	// whitespace inside the object, so a decoder has to read all of it.
	padded := func(head, tail string, n int) string {
		return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
	}
	for _, tc := range []struct {
		name, base, path, head, tail string
	}{
		{"router ingest", router.URL, "/v1/ingest", `{"day":12,`, `"clicks":[]}`},
		{"tag", single.URL, "/v1/tag", `{"title":"family sedans compared",`, `"content":""}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := http.DefaultClient
			_, statsBefore := getRaw(t, c, tc.base+"/v1/stats")
			appliedBefore := applied.Load()
			status, body := postRaw(t, c, tc.base+tc.path, padded(tc.head, tc.tail, maxBodyBytes+1))
			if status != http.StatusRequestEntityTooLarge {
				t.Fatalf("body of limit+1 bytes = %d, want 413: %s", status, body)
			}
			assertEnvelope(t, body, codePayloadTooLarge)
			if n := applied.Load(); n != appliedBefore {
				t.Fatalf("an oversized body reached the ingester (%d calls)", n-appliedBefore)
			}
			if _, statsAfter := getRaw(t, c, tc.base+"/v1/stats"); !bytes.Equal(statsBefore, statsAfter) {
				t.Fatalf("an oversized body changed /v1/stats:\n before %s\n after  %s", statsBefore, statsAfter)
			}
			if status, body := postRaw(t, c, tc.base+tc.path, padded(tc.head, tc.tail, maxBodyBytes)); status != http.StatusOK {
				t.Fatalf("valid body of exactly the limit = %d, want 200: %s", status, body)
			}
		})
	}
}
