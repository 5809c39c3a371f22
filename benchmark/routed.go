package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	giant "giant"
	"giant/internal/serve"
	"giant/internal/wal"
)

const (
	routedShards     = 2
	routedReplicas   = 2
	routedClients    = 2
	routedOpsPerRnd  = 100 // 80 reads and 20 quorum-acked writes
	routedBatchSize  = 30  // clicks per touch batch
	routedBaseRounds = 5
)

// routedEnv is the replicated tier: a delta-log directory, four giantd
// replicas re-mining the tiny corpus, and a giantrouter in front.
type routedEnv struct {
	walDir   string
	replicas [][]*proc // [shard][replica]
	router   *proc
	client   *http.Client
	vocab    *vocab
}

// bootRouted starts the fleet. The replicas build their corpus themselves
// (giantd -build -tiny); the harness builds the same deterministic corpus
// once more in-process, only to know what to ask for.
func bootRouted(fl *fleet) (*routedEnv, error) {
	env := &routedEnv{walDir: filepath.Join(fl.tmpDir, "wal"), client: newClient(routedClients)}
	if err := os.Mkdir(env.walDir, 0o755); err != nil {
		return nil, err
	}
	var sets []string
	for s := 0; s < routedShards; s++ {
		var row []*proc
		var urls []string
		for r := 0; r < routedReplicas; r++ {
			p, err := fl.start("giantd", "-build", "-tiny", "-shard", fmt.Sprintf("%d/%d", s, routedShards),
				"-wal", env.walDir, "-replica", fmt.Sprint(r))
			if err != nil {
				return nil, err
			}
			row = append(row, p)
			urls = append(urls, p.url)
		}
		env.replicas = append(env.replicas, row)
		sets = append(sets, strings.Join(urls, "|"))
	}
	sys, err := giant.Build(giant.TinyConfig())
	if err != nil {
		return nil, fmt.Errorf("build corpus: %w", err)
	}
	env.vocab = newVocab(sys.Snapshot(), sys.World, sys.Log)
	for _, row := range env.replicas {
		for _, p := range row {
			if err := p.waitHealthy(env.client); err != nil {
				return nil, err
			}
		}
	}
	if env.router, err = fl.start("giantrouter", "-wal", env.walDir, "-backends", strings.Join(sets, ",")); err != nil {
		return nil, err
	}
	if err := env.router.waitHealthy(env.client); err != nil {
		return nil, err
	}
	return env, nil
}

// routedRounds builds every round's op list (warm-up first): four reads,
// drawn from the small corpus with repeats, then one write.
func routedRounds(v *vocab, seed int64, timed int) [][]op {
	g := newOpGen(v, seed)
	g.unique = false // repeats are wanted here: the router's partial caches are on this path
	out := make([][]op, timed+1)
	for r := range out {
		n := routedOpsPerRnd
		writes := make([]op, n/5)
		for i := range writes {
			writes[i] = g.touchBatch(routedBatchSize)
		}
		out[r] = interleave(n, 5, g.reads(n-n/5, readMix), writes)
	}
	return out
}

// routerHealth is the part of giantrouter's /healthz the harness reads.
type routerHealth struct {
	Backends []struct {
		Shard   int    `json:"shard"`
		Healthy bool   `json:"healthy"`
		WALGen  uint64 `json:"wal_gen"`
	} `json:"backends"`
	WAL []struct {
		Shard        int    `json:"shard"`
		Head         uint64 `json:"head"`
		AppliedFloor uint64 `json:"applied_floor"`
	} `json:"wal"`
}

func (env *routedEnv) health() (*routerHealth, error) {
	resp, err := env.client.Get(env.router.url + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h routerHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("router /healthz: %w", err)
	}
	return &h, nil
}

// converged reports whether every replica is healthy and has applied its
// shard's log head.
func (h *routerHealth) converged() bool {
	head := map[int]uint64{}
	for _, w := range h.WAL {
		head[w.Shard] = w.Head
	}
	for _, b := range h.Backends {
		if !b.Healthy || b.WALGen != head[b.Shard] {
			return false
		}
	}
	return len(h.Backends) == routedShards*routedReplicas
}

// lag is the largest head-to-slowest-replica distance over the shards.
func (h *routerHealth) lag() uint64 {
	var worst uint64
	for _, w := range h.WAL {
		if w.Head > w.AppliedFloor && w.Head-w.AppliedFloor > worst {
			worst = w.Head - w.AppliedFloor
		}
	}
	return worst
}

// awaitConvergence is the workload's oracle: once the writes stop, every
// replica must reach applied == head. Quorum acks let one replica of a
// shard trail; it must catch up from the log alone.
func (env *routedEnv) awaitConvergence(rep *report, wantHead uint64) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := env.health()
		if err != nil {
			return err
		}
		if h.converged() {
			for _, w := range h.WAL {
				if w.Head != wantHead {
					rep.problemf("shard %d log head is %d after %d acked writes", w.Shard, w.Head, wantHead)
				}
			}
			return nil
		}
		if time.Now().After(deadline) {
			rep.problemf("replicas did not converge within 30s of the last write: %+v", *h)
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func runRoutedIngest(cfg runConfig, fl *fleet) (*report, error) {
	start := time.Now()
	env, err := bootRouted(fl)
	if err != nil {
		return nil, err
	}
	lists := routedRounds(env.vocab, cfg.seed, rounds(cfg.seconds, routedBaseRounds))
	if cfg.trace {
		return traceRouted(cfg, fl, env, lists)
	}

	rep := &report{metrics: map[string]float64{}, info: map[string]float64{}}
	lat := make([]float64, routedOpsPerRnd)
	writes := 0
	cpu := func() float64 { return fl.cpuMsOf("") }
	setupS, stats := measureRounds(start, len(lists)-1, cpu, func(r int) ([]float64, time.Duration) {
		res := runRound(env.client, env.router.url, lists[r], lat, routedClients)
		rep.reportStatuses(fmt.Sprintf("round %d", r), res.statuses)
		writes += len(lists[r]) / 5
		if r == 0 && res.tally.transport > 0 {
			rep.problemf("warm-up round: %d transport errors", res.tally.transport)
		} else if r > 0 {
			rep.tally.add(res.tally)
		}
		return lat, res.wall
	})
	if err := env.awaitConvergence(rep, uint64(writes)); err != nil {
		return nil, err
	}
	fillEndToEnd(rep, setupS, stats, fl.peakRSSMBOf(""))
	rep.info["router.reads_retried_after_502"] = float64(rep.tally.retried)
	return rep, nil
}

// spanTransport is the in-process router's backend transport: every
// upstream call becomes a span under the router handler span being
// replayed, so fan-out width and upstream time are measured where they
// happen. partials counts the calls that fetch a search or rewrite partial,
// the two kinds giantrouter caches.
type spanTransport struct {
	tr       *tracer
	base     http.RoundTripper
	parent   atomic.Int64
	op       atomic.Int64
	calls    atomic.Int64
	partials atomic.Int64
}

func (st *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	st.calls.Add(1)
	if isPartialPath(req.URL.Path) {
		st.partials.Add(1)
	}
	parent := int(st.parent.Load())
	if parent < 0 {
		return st.base.RoundTrip(req) // counted, not traced
	}
	id := st.tr.begin("router.upstream", parent, int(st.op.Load()))
	resp, err := st.base.RoundTrip(req)
	st.tr.end(id)
	return resp, err
}

func isPartialPath(path string) bool { return path == "/v1/search" || path == "/v1/query/rewrite" }

// partialRequests sums, over every replica, the search and rewrite requests
// it has served so far. Only routers send those to a replica, so the growth
// of this count over a pass is the number of partials giantrouter fetched.
func (env *routedEnv) partialRequests() (int, error) {
	total := 0
	for _, row := range env.replicas {
		for _, p := range row {
			resp, err := env.client.Get(p.url + "/v1/metrics")
			if err != nil {
				return 0, err
			}
			var m serve.Metrics
			err = json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if err != nil {
				return 0, fmt.Errorf("replica /v1/metrics: %w", err)
			}
			total += int(m.Endpoints["search"].Requests + m.Endpoints["query_rewrite"].Requests)
		}
	}
	return total, nil
}

// awaitVisible blocks until every replica has applied its shard's log
// generation gens[shard].
func (env *routedEnv) awaitVisible(gens []uint64) error {
	for s, row := range env.replicas {
		for _, p := range row {
			resp, err := env.client.Get(fmt.Sprintf("%s/v1/wal?wait=%d&timeout_ms=30000", p.url, gens[s]))
			if err != nil {
				return fmt.Errorf("wait for replica: %w", err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	return nil
}

// ingestAck is the part of giantrouter's ingest response the harness reads.
type ingestAck struct {
	WALGenerations []uint64 `json:"wal_generations"`
}

// traceRouted is the traced run, one op at a time and with every write
// followed until all four replicas show it, so that each write's cost is
// seen alone. Sample A goes through giantrouter without spans. Sample B
// goes through it with a span around every call; afterwards each of its
// reads is replayed through an in-process serve.NewRouter over the same
// replicas whose transport spans every upstream call, and each of its
// writes is appended once more to a scratch log.
func traceRouted(cfg runConfig, fl *fleet, env *routedEnv, lists [][]op) (*report, error) {
	rep := &report{metrics: zeroLayerMetrics(), info: map[string]float64{}}
	lat := make([]float64, routedOpsPerRnd)
	if warm := runRound(env.client, env.router.url, lists[0], lat, routedClients); warm.tally.failed() > 0 {
		rep.problemf("warm-up round: %d failed ops", warm.tally.failed())
	}
	writes := uint64(len(lists[0]) / 5)
	// Let the replicas the quorum acks left behind catch up, so that both
	// passes below start on a quiet fleet.
	if err := env.awaitConvergence(rep, writes); err != nil {
		return nil, err
	}

	var all []op
	for _, l := range lists[1:] {
		all = append(all, l...)
	}
	// One block in four each: with 20 writes a round, a tenth of the list
	// would leave the write metrics ten samples.
	sampleA, sampleB := sampleOps(all, 4, 0), sampleOps(all, 4, 2)

	// The in-process router reads from replica 0 of each shard and caches
	// nothing, so a replay always pays the full fan-out and can be repeated.
	tr := newTracer(16 * len(sampleB))
	st := &spanTransport{tr: tr, base: &http.Transport{MaxIdleConnsPerHost: 4}}
	backends := make([]string, routedShards)
	for s := range backends {
		backends[s] = env.replicas[s][0].url
	}
	inproc, err := serve.NewRouter(serve.RouterOptions{Backends: backends, Client: &http.Client{Transport: st}})
	if err != nil {
		return nil, err
	}
	defer inproc.Close()
	scratchPath := filepath.Join(fl.tmpDir, "scratch.wal")
	scratch, err := wal.Create(scratchPath, 0, routedShards)
	if err != nil {
		return nil, err
	}
	defer scratch.Close()

	statuses := map[int]int{}
	var lagMax uint64
	// send issues one op to giantrouter; for a write it also waits until
	// every replica shows it. It returns the op's latency and whether the
	// op succeeded.
	var ack ingestAck
	send := func(o *op, i int, spans bool) (ms float64, root int, ok bool) {
		var status int
		var derr error
		call := func() {
			if o.kind == kindIngest {
				status, derr = env.postJSON(o, &ack)
			} else {
				var r reply
				r, derr = do(env.client, env.router.url, o, nil)
				status = r.status
			}
		}
		vis := -1
		t0 := time.Now()
		switch {
		case !spans:
			call()
		case o.kind == kindIngest:
			vis = tr.begin("follower.visible", -1, i)
			root = tr.time("router.ingest_ack", vis, i, call)
		default:
			root = tr.time("http", -1, i, call)
		}
		ms = msSince(t0)
		rep.tally.attempted++
		switch {
		case derr != nil:
			rep.tally.transport++
		case status != http.StatusOK:
			rep.tally.non2xx++
			statuses[status]++
		default:
			ok = true
		}
		if ok && o.kind == kindIngest {
			writes++
			if !spans {
				// How far quorum acks let the slowest replica trail, read on
				// the untraced pass between two ops so that no span pays for it.
				if h, err := env.health(); err == nil && h.lag() > lagMax {
					lagMax = h.lag()
				}
			}
			if len(ack.WALGenerations) != routedShards {
				rep.problemf("ingest ack without wal_generations")
				ok = false
			} else if err := env.awaitVisible(ack.WALGenerations); err != nil {
				rep.problemf("%v", err)
				ok = false
			}
		}
		if vis >= 0 {
			tr.end(vis)
		}
		return ms, root, ok
	}

	// Untraced pass.
	runtime.GC()
	partials0, err := env.partialRequests()
	if err != nil {
		return nil, err
	}
	dCPU0, rCPU0, lCPU0 := fl.cpuMsOf("giantd"), fl.cpuMsOf("giantrouter"), selfCPUMs()
	var latA, readLatA []float64
	for i := range sampleA {
		ms, _, _ := send(&sampleA[i], i, false)
		latA = append(latA, ms)
		if sampleA[i].kind != kindIngest {
			readLatA = append(readLatA, ms)
		}
	}
	dCPU1, rCPU1, lCPU1 := fl.cpuMsOf("giantd"), fl.cpuMsOf("giantrouter"), selfCPUMs()
	partials1, err := env.partialRequests()
	if err != nil {
		return nil, err
	}

	// Traced pass, phase one: the real calls.
	roots := make([]int, len(sampleB))
	var applyCPU []float64
	for i := range sampleB {
		o := &sampleB[i]
		cpu0 := fl.cpuMsOf("giantd")
		_, root, ok := send(o, i, true)
		roots[i] = root
		if !ok {
			roots[i] = -1
		} else if o.kind == kindIngest {
			applyCPU = append(applyCPU, fl.cpuMsOf("giantd")-cpu0)
		}
	}
	if err := env.awaitConvergence(rep, writes); err != nil {
		return nil, err
	}

	// Phase two: the replays.
	var uncachedPartials, upstreamCalls, reads int
	var walBytes int64
	for i := range sampleB {
		o := &sampleB[i]
		if roots[i] < 0 {
			continue
		}
		if o.kind == kindIngest {
			size0 := fileSize(scratchPath)
			var aerr error
			tr.time("wal.append", -1, i, func() { _, aerr = scratch.Append(env.vocab.lastDay, o.body) })
			if aerr != nil {
				return nil, fmt.Errorf("scratch wal append: %w", aerr)
			}
			walBytes += fileSize(scratchPath) - size0
			continue
		}
		before := st.calls.Load()
		tr.bestOf(func() {
			h := tr.begin("router.handler", roots[i], i)
			st.parent.Store(int64(h))
			st.op.Store(int64(i))
			serveInProcess(inproc.Handler(), o)
			tr.end(h)
		})
		upstreamCalls += int(st.calls.Load()-before) / replayRuns
		reads++
	}
	// What sample A's cacheable reads cost without a cache, for the hit ratio.
	st.parent.Store(-1)
	st.partials.Store(0)
	for i := range sampleA {
		if k := sampleA[i].kind; k == kindSearch || k == kindRewrite {
			serveInProcess(inproc.Handler(), &sampleA[i])
		}
	}
	uncachedPartials = int(st.partials.Load())
	rep.reportStatuses("traced run", statuses)
	ix := indexSpans(tr.spans)
	if err := finishTrace(cfg, rep, tr, median(ix.durations("http", nil))/median(readLatA), latA); err != nil {
		return nil, err
	}
	m := rep.metrics
	for _, k := range readKinds {
		k := k
		m["router.read_ms."+k.String()] = median(ix.durations("http", func(op int) bool { return sampleB[op].kind == k }))
	}
	if reads > 0 {
		m["router.upstream_calls_per_op"] = float64(upstreamCalls) / float64(reads)
	}
	// A read's upstream time is what its fan-out covers of the handler.
	handler := ix.durations("router.handler", nil)
	self := ix.selves("router.handler", nil)
	up := make([]float64, len(handler))
	for i := range handler {
		up[i] = handler[i] - self[i]
	}
	m["router.upstream_ms"] = median(up)
	m["router.self_ms"] = median(self)
	m["router.ingest_ack_ms"] = median(ix.durations("router.ingest_ack", nil))
	m["follower.visible_ms"] = median(ix.durations("follower.visible", nil))
	m["wal.append_ms"] = median(ix.durations("wal.append", nil))
	if n := len(applyCPU); n > 0 {
		m["wal.bytes_per_batch"] = float64(walBytes) / float64(n)
		m["follower.apply_cpu_ms_per_batch"] = mean(applyCPU)
	}
	if uncachedPartials > 0 {
		m["router.cache.hit_ratio"] = 1 - float64(partials1-partials0)/float64(uncachedPartials)
	}
	m["router.retry_429"] = float64(statuses[http.StatusTooManyRequests])
	m["router.partial_apply_502"] = float64(statuses[http.StatusBadGateway])
	m["replica.lag_max"] = float64(lagMax)
	opsA := float64(len(sampleA))
	m["proc.giantd.cpu_ms_per_op"] = (dCPU1 - dCPU0) / opsA
	m["proc.giantrouter.cpu_ms_per_op"] = (rCPU1 - rCPU0) / opsA
	m["proc.loadgen.cpu_ms_per_op"] = (lCPU1 - lCPU0) / opsA
	m["proc.giantd.rss_mb"], m["proc.giantrouter.rss_mb"] = fl.peakRSSMBOf("giantd"), fl.peakRSSMBOf("giantrouter")
	rep.info["trace.sample_ops"] = float64(len(sampleB))
	return rep, nil
}

// postJSON sends a write op to the router and decodes a 200 body into out.
func (env *routedEnv) postJSON(o *op, out any) (int, error) {
	var buf bytes.Buffer
	r, err := do(env.client, env.router.url, o, &buf)
	if err != nil {
		return 0, err
	}
	if r.status == http.StatusOK {
		if err := json.Unmarshal(r.body, out); err != nil {
			return r.status, fmt.Errorf("decode ingest response: %w", err)
		}
	}
	return r.status, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
