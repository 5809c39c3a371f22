package main

import (
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	giant "giant"
	"giant/internal/ontology"
	"giant/internal/queryund"
	"giant/internal/serve"
	"giant/internal/storytree"
	"giant/internal/tagging"
)

// lightConfig is the corpus of the offline and the two single-daemon
// workloads: the default world and click log (about 2 k nodes) with light
// training. A read on it does real work instead of measuring loopback
// alone, training takes about as long as mining, and the build stays a few
// seconds of set-up.
func lightConfig() giant.Config {
	cfg := giant.DefaultConfig()
	cfg.TrainConcepts, cfg.TrainEvents, cfg.GCTSP.Epochs = 60, 50, 4
	return cfg
}

const (
	hotSetSize = 256 // fits giantd's 1024-entry response cache four times over
	numShards  = 4

	// Per-round op counts: a round is long enough that its p90 has a few
	// hundred samples beyond it, and short enough that a run holds five.
	cachedOpsPerRound = 4000
	coldOpsPerRound   = 900
	cachedBaseRounds  = 5
	coldBaseRounds    = 5
)

// servingEnv is a built corpus, its GIANTBIN artifact, a giantd serving
// it, and the in-process reference server the oracle compares with.
type servingEnv struct {
	sharded bool
	vocab   *vocab
	daemon  *proc
	client  *http.Client
	snap    *ontology.Snapshot // the artifact as giantd loaded it
	ref     *serve.Server      // serve.New over snap: the oracle
	saveMs  float64
	loadMs  float64
}

// bootServing builds the corpus, writes the artifact, boots giantd over it
// and loads the same artifact into the reference server.
func bootServing(fl *fleet, sharded bool) (*servingEnv, error) {
	env := &servingEnv{sharded: sharded, client: newClient(1)}
	sys, err := giant.Build(lightConfig())
	if err != nil {
		return nil, fmt.Errorf("build corpus: %w", err)
	}
	artifact := filepath.Join(fl.tmpDir, "ontology.bin")
	t0 := time.Now()
	if err := sys.Snapshot().SaveBinaryFile(artifact); err != nil {
		return nil, fmt.Errorf("write artifact: %w", err)
	}
	env.saveMs = msSince(t0)

	args := []string{"-in", artifact}
	if sharded {
		args = append(args, "-shards", fmt.Sprint(numShards))
	}
	if env.daemon, err = fl.start("giantd", args...); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if env.snap, err = ontology.LoadSnapshotFile(artifact); err != nil {
		return nil, fmt.Errorf("load artifact: %w", err)
	}
	env.loadMs = msSince(t0)
	env.ref = serve.New(env.snap, serve.Options{})
	env.vocab = newVocab(env.snap, sys.World, sys.Log)
	if err := env.daemon.waitHealthy(env.client); err != nil {
		return nil, err
	}
	return env, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// servingRounds builds the op list of every round (warm-up first) of a
// serving workload from the seed.
func servingRounds(v *vocab, seed int64, sharded bool, timed int) [][]op {
	g := newOpGen(v, seed)
	out := make([][]op, timed+1)
	if sharded {
		for r := range out {
			out[r] = g.reads(coldOpsPerRound, readMix)
		}
		return out
	}
	hot := g.reads(hotSetSize, hotMix)
	for i := range hot {
		hot[i].hot = true
	}
	for r := range out {
		out[r] = interleave(cachedOpsPerRound, 5, hot, g.reads(cachedOpsPerRound/5, readMix))
	}
	return out
}

func runSingleCached(cfg runConfig, fl *fleet) (*report, error) {
	return runServing(cfg, fl, false, rounds(cfg.seconds, cachedBaseRounds))
}

func runShardedCold(cfg runConfig, fl *fleet) (*report, error) {
	return runServing(cfg, fl, true, rounds(cfg.seconds, coldBaseRounds))
}

func runServing(cfg runConfig, fl *fleet, sharded bool, timed int) (*report, error) {
	start := time.Now()
	env, err := bootServing(fl, sharded)
	if err != nil {
		return nil, err
	}
	lists := servingRounds(env.vocab, cfg.seed, sharded, timed)
	if cfg.trace {
		return traceServing(cfg, fl, env, lists)
	}

	rep := &report{metrics: map[string]float64{}, info: map[string]float64{}}
	lat := make([]float64, len(lists[0]))
	cpu := func() float64 { return fl.cpuMsOf("") }
	setupS, stats := measureRounds(start, timed, cpu, func(r int) ([]float64, time.Duration) {
		res := runRound(env.client, env.daemon.url, lists[r], lat, 1)
		where := fmt.Sprintf("round %d", r)
		rep.reportStatuses(where, res.statuses)
		var first string
		if res.tally.mismatch, first = checkOracle(env.ref.Handler(), res.sample); res.tally.mismatch > 0 {
			rep.problemf("%s: %d of %d sampled responses differ from in-process serve.New; first: %s", where, res.tally.mismatch, len(res.sample), first)
		}
		if r == 0 && res.tally.failed() > 0 {
			rep.problemf("warm-up round: %d failed ops", res.tally.failed())
		} else if r > 0 {
			rep.tally.add(res.tally)
		}
		return lat, res.wall
	})
	checkHitRatio(rep, sharded, rep.tally.hitRatio())
	fillEndToEnd(rep, setupS, stats, fl.peakRSSMBOf(""))
	rep.info["serve.cache.hit_ratio"] = rep.tally.hitRatio()
	return rep, nil
}

// checkHitRatio holds each workload to the cache behaviour it exists to
// measure, counted from X-Cache: exactly the hot share on single_cached,
// nothing on sharded_cold.
func checkHitRatio(rep *report, sharded bool, ratio float64) {
	if sharded {
		if ratio > 0.01 {
			rep.problemf("cold workload saw cache hit ratio %.4f, want <= 0.01", ratio)
		}
	} else if math.Abs(ratio-0.80) > 0.01 {
		rep.problemf("cached workload saw cache hit ratio %.4f, want 0.80 +- 0.01", ratio)
	}
}

// fillEndToEnd sets the six gated metrics from the timed rounds.
func fillEndToEnd(rep *report, setupS float64, stats []roundStats, rssMB float64) {
	m := medianOfRounds(stats)
	rep.metrics["setup_s"] = setupS
	rep.metrics["ops_per_s"] = m.opsPerS
	rep.metrics["p50_ms"] = m.p50
	rep.metrics["p90_ms"] = m.p90
	rep.metrics["cpu_ms_per_op"] = m.cpuMsPerOp
	rep.metrics["peak_rss_mb"] = rssMB
	rep.info["client.p99_ms"] = m.p99
	rep.info["client.max_ms"] = m.max
	rep.info["rounds"] = float64(len(stats))
	rep.info["ops_per_round"] = float64(stats[0].ops)
}

// layerCalls holds the direct entry points of the layers under a handler,
// built over the same snapshot the handler serves.
type layerCalls struct {
	snap     *ontology.Snapshot
	shards   *ontology.ShardedSnapshot
	concepts *tagging.ConceptTagger
	events   *tagging.EventTagger
	query    *queryund.Understander
	frags    []*storytree.EventNode
	enc      storytree.Encoder
	story    storytree.Options
	docs     []tagging.Document
}

func newLayerCalls(snap *ontology.Snapshot, shards *ontology.ShardedSnapshot, v *vocab) *layerCalls {
	return &layerCalls{
		snap: snap, shards: shards,
		concepts: tagging.NewConceptTagger(snap, nil),
		events:   tagging.NewEventTagger(snap, nil),
		query:    queryund.New(snap),
		frags:    storytree.EventsFromView(snap),
		enc:      storytree.NewBagOfTokensEncoder(16, nil),
		story:    storytree.DefaultOptions(),
		docs:     v.tagDocs,
	}
}

// sink keeps the compiler from discarding a replayed call's result.
var sink int

// replay records, as a child of parent, the public layer call a handler
// makes for o on a cache miss. sharded selects the scatter-gather search;
// the other kinds have one entry point, whose sharded price shows up as
// handler self time and in serve.sharded_overhead_ratio.
func (lc *layerCalls) replay(tr *tracer, parent, opID int, o *op, sharded bool) {
	switch o.kind {
	case kindSearch:
		if sharded {
			tr.time("ontology.sharded_search", parent, opID, func() { sink += len(lc.shards.Search(o.arg, o.limit)) })
		} else {
			tr.time("ontology.search", parent, opID, func() { sink += len(lc.snap.Search(o.arg, o.limit)) })
		}
	case kindNode:
		tr.time("ontology.node", parent, opID, func() {
			n, _ := lc.snap.Get(o.node)
			for et := ontology.EdgeType(0); et < ontology.NumEdgeTypes; et++ {
				sink += len(lc.snap.Parents(n.ID, et)) + len(lc.snap.Children(n.ID, et))
			}
			sink += len(lc.snap.Ancestors(n.ID))
		})
	case kindTag:
		doc := &lc.docs[o.doc]
		tr.time("tagging.tag", parent, opID, func() {
			sink += len(lc.concepts.TagConcepts(doc)) + len(lc.events.TagEvents(doc))
		})
	case kindRewrite:
		tr.time("queryund.analyze", parent, opID, func() { sink += len(lc.query.Analyze(o.arg).Rewrites) })
	case kindStory:
		tr.time("storytree.form", parent, opID, func() {
			if tree, ok := storytree.FormFromEvents(lc.frags, o.arg, lc.enc, lc.story); ok {
				sink += len(tree.Branches)
			}
		})
	}
}

// traceServing is the traced run of a serving workload. Two disjoint
// 1-in-10 samples of the timed op lists are used: sample A is sent to the
// daemon untraced and gives the run's own end-to-end reference; sample B
// is sent again with a span around the real HTTP call, then replayed
// through an in-process handler of the daemon's mode and through the
// direct layer calls under it.
func traceServing(cfg runConfig, fl *fleet, env *servingEnv, lists [][]op) (*report, error) {
	rep := &report{metrics: zeroLayerMetrics(), info: map[string]float64{}}
	sharded := env.sharded

	// In-process twins of the daemon. Misses replay on a server without a
	// response cache, because each miss is replayed several times (see
	// below) and only the first time would be a miss; hits replay on a caching server
	// that has taken the warm-up round like the daemon.
	noCache := serve.Options{CacheSize: -1}
	var missSrv, hitSrv, singleSrv http.Handler
	var ss *ontology.ShardedSnapshot
	if sharded {
		var err error
		if ss, err = ontology.ShardSnapshot(env.snap, numShards); err != nil {
			return nil, err
		}
		missSrv = serve.NewSharded(ss, noCache).Handler()
		singleSrv = serve.New(env.snap, noCache).Handler()
	} else {
		missSrv = serve.New(env.snap, noCache).Handler()
		hitSrv = serve.New(env.snap, serve.Options{}).Handler()
	}
	lc := newLayerCalls(env.snap, ss, env.vocab)

	lat := make([]float64, len(lists[0]))
	if warm := runRound(env.client, env.daemon.url, lists[0], lat, 1); warm.tally.failed() > 0 {
		rep.problemf("warm-up round: %d failed ops", warm.tally.failed())
	}
	for i := range lists[0] {
		if hitSrv != nil {
			serveInProcess(hitSrv, &lists[0][i])
		}
		serveInProcess(missSrv, &lists[0][i])
	}

	var all []op
	for _, l := range lists[1:] {
		all = append(all, l...)
	}
	sampleA, sampleB := sampleOps(all, 10, 0), sampleOps(all, 10, 5)

	// Untraced pass.
	runtime.GC()
	dCPU0, lCPU0 := fl.cpuMsOf("giantd"), selfCPUMs()
	latA := make([]float64, len(sampleA))
	passA := runRound(env.client, env.daemon.url, sampleA, latA, 1)
	dCPU1, lCPU1 := fl.cpuMsOf("giantd"), selfCPUMs()
	rep.reportStatuses("untraced pass", passA.statuses)
	var first string
	if passA.tally.mismatch, first = checkOracle(env.ref.Handler(), passA.sample); passA.tally.mismatch > 0 {
		rep.problemf("untraced pass: %d sampled responses differ from in-process serve.New; first: %s", passA.tally.mismatch, first)
	}
	rep.tally.add(passA.tally)
	checkHitRatio(rep, sharded, passA.tally.hitRatio())

	// Traced pass, in two phases so that the replays do not sit between
	// the real calls and cool the daemon down: first every real HTTP call
	// with a span around it, then each op's replays under that span.
	tr := newTracer(8 * len(sampleB))
	hit := make([]bool, len(sampleB))
	roots := make([]int, len(sampleB))
	for i := range sampleB {
		var r reply
		var derr error
		roots[i] = tr.time("http", -1, i, func() { r, derr = do(env.client, env.daemon.url, &sampleB[i], nil) })
		rep.tally.attempted++
		switch {
		case derr != nil:
			rep.tally.transport++
			roots[i] = -1
		case r.status != http.StatusOK:
			rep.tally.non2xx++
			roots[i] = -1
		}
		hit[i] = r.cacheHit
	}
	// Replays are sub-millisecond calls on a shared box: one preemption
	// inside a child and not in its parent turns the parent's self time
	// negative. Each op's replays therefore run replayRuns times and the run
	// with the smallest total is kept, parent and children together.
	candidates, searches := 0, 0
	resumeGC := pauseGC()
	for i := range sampleB {
		o := &sampleB[i]
		if roots[i] < 0 {
			continue
		}
		if i%collectEvery == 0 {
			runtime.GC()
		}
		if hit[i] {
			tr.time("serve.handler", roots[i], i, func() { serveInProcess(hitSrv, o) })
			continue
		}
		tr.bestOf(func() {
			h := tr.time("serve.handler", roots[i], i, func() { serveInProcess(missSrv, o) })
			lc.replay(tr, h, i, o, sharded)
			if sharded {
				// Reference spans (no parent): the same request on the
				// single-snapshot path, for the fold's price.
				hs := tr.time("serve.handler.single", -1, i, func() { serveInProcess(singleSrv, o) })
				if o.kind == kindSearch {
					lc.replay(tr, hs, i, o, false)
				}
			}
		})
		if sharded && o.kind == kindSearch {
			candidates += len(ss.CandidateShards(o.arg))
			searches++
		}
	}
	resumeGC()
	ix := indexSpans(tr.spans)
	if err := finishTrace(cfg, rep, tr, median(ix.durations("http", nil))/median(latA), latA); err != nil {
		return nil, err
	}
	m := rep.metrics
	m["serve.cache.hit_ratio"] = passA.tally.hitRatio()
	isHit := func(op int) bool { return hit[op] }
	m["serve.handler_hit_ms"] = median(ix.durations("serve.handler", isHit))
	m["http.transport_self_ms"] = median(ix.selves("http", nil))
	for _, k := range readKinds {
		k := k
		missOf := func(op int) bool { return !hit[op] && sampleB[op].kind == k }
		miss := median(ix.durations("serve.handler", missOf))
		m["serve.handler_miss_ms."+k.String()] = miss
		m["serve.handler_self_ms."+k.String()] = median(ix.selves("serve.handler", missOf))
		if single := median(ix.durations("serve.handler.single", missOf)); single > 0 {
			m["serve.sharded_overhead_ratio."+k.String()] = miss / single
		}
	}
	m["ontology.search_ms"] = median(ix.durations("ontology.search", nil))
	m["ontology.sharded_search_ms"] = median(ix.durations("ontology.sharded_search", nil))
	if searches > 0 {
		m["ontology.candidate_shards_per_query"] = float64(candidates) / float64(searches)
	}
	m["ontology.node_ms"] = median(ix.durations("ontology.node", nil))
	m["tagging.tag_ms"] = median(ix.durations("tagging.tag", nil))
	m["queryund.analyze_ms"] = median(ix.durations("queryund.analyze", nil))
	m["storytree.form_ms"] = median(ix.durations("storytree.form", nil))
	m["ontology.save_bin_ms"], m["ontology.load_bin_ms"] = env.saveMs, env.loadMs
	ops := float64(len(sampleA))
	m["proc.giantd.cpu_ms_per_op"] = (dCPU1 - dCPU0) / ops
	m["proc.loadgen.cpu_ms_per_op"] = (lCPU1 - lCPU0) / ops
	m["proc.giantd.rss_mb"] = fl.peakRSSMBOf("giantd")
	rep.info["trace.sample_ops"] = float64(len(sampleB))
	return rep, nil
}

// collectEvery is how many traced ops pass between two forced collections
// while the collector is paused.
const collectEvery = 20

// pauseGC turns the collector off for the replay phase of a traced run and
// returns the function that turns it back on. The replays of one op run
// back to back in this process; a collection that lands in one of them and
// not in its parent would be billed to the wrong layer. Collections are
// forced between ops instead, outside every span. (End-to-end numbers come
// from the daemons, whose collector runs as usual.)
func pauseGC() (resume func()) {
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// zeroLayerMetrics starts a traced report with every per-layer metric at
// 0, the reading of a layer the workload does not exercise.
func zeroLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayerSpecs))
	for _, s := range perLayerSpecs {
		m[s.name] = 0
	}
	return m
}
