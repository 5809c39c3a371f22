package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	giant "giant"
	"giant/internal/clickgraph"
	"giant/internal/core"
	"giant/internal/delta"
	"giant/internal/ontology"
	"giant/internal/synth"
)

const (
	// The offline workload builds the ontology from the first half of the
	// simulated month and replays the second half through System.Ingest.
	offlineSplitDay = 15
	offlineLastDay  = 30
	// One round is one day, cut into this many sub-day click batches, so a
	// round's p90 has ten batches beyond it. The first replayed day is the
	// warm-up round.
	offlineSlicesPerDay = 100
	offlineBaseRounds   = 8
)

// replayRounds cuts the click stream after splitDay into rounds of
// sub-day batches, one round per day, days+1 rounds (warm-up first). The
// seed decides which of a day's clicks share a batch.
func replayRounds(records []synth.Record, seed int64, days int) [][]delta.Batch {
	byDay := map[int][]synth.Record{}
	for _, r := range records {
		byDay[r.Day] = append(byDay[r.Day], r)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]delta.Batch, 0, days+1)
	for day := offlineSplitDay + 1; day <= offlineSplitDay+1+days && day <= offlineLastDay; day++ {
		recs := byDay[day]
		var round []delta.Batch
		for s := 0; s < offlineSlicesPerDay; s++ {
			lo, hi := len(recs)*s/offlineSlicesPerDay, len(recs)*(s+1)/offlineSlicesPerDay
			if lo == hi {
				continue
			}
			b := delta.Batch{Day: day}
			for _, r := range recs[lo:hi] {
				b.Clicks = append(b.Clicks, delta.Click{Query: r.Query, DocID: r.DocID, Clicks: r.Clicks, Day: r.Day})
			}
			rng.Shuffle(len(b.Clicks), func(i, j int) { b.Clicks[i], b.Clicks[j] = b.Clicks[j], b.Clicks[i] })
			round = append(round, b)
		}
		out = append(out, round)
	}
	return out
}

// fingerprint hashes the ontology's content — typed phrases and typed
// phrase pairs, sorted — and not its node numbering, so it is the same for
// every order the same clicks can arrive in.
func fingerprint(snap *ontology.Snapshot) uint32 {
	var lines []string
	for _, n := range snap.Nodes() {
		lines = append(lines, fmt.Sprintf("n|%s|%s", n.Type, n.Phrase))
	}
	for _, e := range snap.Edges() {
		lines = append(lines, fmt.Sprintf("e|%s|%s|%s", e.Type, snap.At(e.Src).Phrase, snap.At(e.Dst).Phrase))
	}
	sort.Strings(lines)
	h := fnv.New32a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum32()
}

func runOfflineReplay(cfg runConfig, _ *fleet) (*report, error) {
	days := rounds(cfg.seconds, offlineBaseRounds)
	if most := offlineLastDay - offlineSplitDay - 1; days > most {
		days = most // the month has no more days to replay
	}
	if cfg.trace {
		return traceOffline(cfg, days)
	}
	start := time.Now()
	gcfg := lightConfig()
	sys, err := giant.BuildUpToDay(gcfg, offlineSplitDay)
	if err != nil {
		return nil, err
	}
	lists := replayRounds(synth.GenWorld(gcfg.World).GenerateLog(gcfg.Log).Records, cfg.seed, days)

	rep := &report{metrics: map[string]float64{}, info: map[string]float64{}}
	rep.info["giant.build_rss_mb"] = forgetBuildMemory()
	setupS, stats := measureRounds(start, days, selfCPUMs, func(r int) ([]float64, time.Duration) {
		lat := make([]float64, len(lists[r]))
		t0 := time.Now()
		for i, b := range lists[r] {
			t := time.Now()
			_, _, err := sys.Ingest(b)
			lat[i] = msSince(t)
			if r > 0 {
				rep.tally.attempted++
			}
			if err != nil {
				rep.tally.non2xx++
				rep.problemf("ingest day %d batch %d: %v", b.Day, i, err)
			}
		}
		return lat, time.Since(t0)
	})
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	fillEndToEnd(rep, setupS, stats, rss)
	snap := sys.Snapshot()
	rep.info["out.fingerprint"] = float64(fingerprint(snap))
	rep.info["ontology.nodes_final"] = float64(snap.NodeCount())
	rep.info["ontology.edges_final"] = float64(snap.EdgeCount())
	return rep, nil
}

// forgetBuildMemory returns the harness's resident-set high-water mark so
// far, which the build set, and then starts the mark afresh: the build's
// garbage goes back to the OS and the kernel's mark is reset. The build's
// peak depends on how the collector's cycles fall between two concurrent
// training runs and comes out near 54 MB or near 68 MB from one run to the
// next; left in, it would be the whole of this workload's peak_rss_mb. From
// here on the mark tracks what the replay itself keeps resident.
func forgetBuildMemory() (buildMB float64) {
	buildMB, _ = peakRSSMB(os.Getpid()) // 0 where /proc is unreadable; peak_rss_mb reports that error
	debug.FreeOSMemory()
	// Linux: "5" resets VmHWM to the current RSS. Where that is refused the
	// mark simply keeps the build's peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	return buildMB
}

// replayBuild repeats, span by span under parent, the public calls
// giant.BuildUpToDay makes up to the end of mining, with the two training
// runs side by side as Build runs them. What is left of the parent is
// linking and assembly.
func replayBuild(tr *tracer, parent int, cfg giant.Config) {
	var world *synth.World
	var log *synth.Log
	tr.time("synth.gen", parent, 0, func() {
		world = synth.GenWorld(cfg.World)
		log = world.GenerateLog(cfg.Log)
	})
	click := clickgraph.New()
	tr.time("clickgraph.build", parent, 0, func() {
		for _, r := range log.Records {
			if r.Day <= offlineSplitDay {
				click.Add(r.Query, r.DocID, log.Docs[r.DocID].Title, r.Clicks, r.Day)
			}
		}
	})
	conceptTrain := world.ConceptExamples(cfg.TrainConcepts, cfg.Seed+1)
	eventTrain := world.EventExamples(cfg.TrainEvents, cfg.Seed+2)
	phraseModel := core.NewPhraseModel(world.Lexicon, cfg.GCTSP)
	keyModel := core.NewKeyElementModel(world.Lexicon, cfg.GCTSP)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		tr.time("core.train_phrase", parent, 0, func() {
			phraseModel.Train(append(append([]synth.MiningExample{}, conceptTrain...), eventTrain...))
		})
	}()
	go func() {
		defer wg.Done()
		tr.time("core.train_key", parent, 0, func() { keyModel.Train(eventTrain) })
	}()
	wg.Wait()
	miner := core.NewMiner(phraseModel, keyModel, world.Lexicon)
	miner.Parallelism = runtime.GOMAXPROCS(0)
	tr.time("core.mine", parent, 0, func() { sink += len(miner.Mine(click)) })
}

// traceOffline is the traced run: the build once for real and once as
// replayed children, then the whole replay with every batch ingested in
// order. Sample A of the batches is timed bare for the run's own
// end-to-end reference; sample B gets a span around System.Ingest and,
// after it returned, replays of the two public calls inside it.
func traceOffline(cfg runConfig, days int) (*report, error) {
	rep := &report{metrics: zeroLayerMetrics(), info: map[string]float64{}}
	gcfg := lightConfig()
	tr := newTracer(4096)
	var sys *giant.System
	var err error
	build := tr.time("giant.Build", -1, 0, func() { sys, err = giant.BuildUpToDay(gcfg, offlineSplitDay) })
	if err != nil {
		return nil, err
	}
	m := rep.metrics
	m["giant.build_rss_mb"] = forgetBuildMemory()
	replayBuild(tr, build, gcfg)
	lists := replayRounds(synth.GenWorld(gcfg.World).GenerateLog(gcfg.Log).Records, cfg.seed, days)

	var latA []float64
	var seeds, added, edges, batches int
	opID := 0
	for r, round := range lists {
		runtime.GC()
		for i := range round {
			b := round[i]
			opID++
			block := (i / 5) % 10
			traced := r > 0 && block == 5
			var cur *ontology.Snapshot
			if traced {
				cur = sys.Ontology.Snapshot()
			}
			var d *delta.Delta
			var ierr error
			t0 := time.Now()
			var root int
			if traced {
				root = tr.time("giant.Ingest", -1, opID, func() { _, d, ierr = sys.Ingest(b) })
			} else {
				_, d, ierr = sys.Ingest(b)
			}
			ms := msSince(t0)
			rep.tally.attempted++
			if ierr != nil {
				rep.tally.non2xx++
				rep.problemf("ingest day %d batch %d: %v", b.Day, i, ierr)
				continue
			}
			seeds, added, edges, batches = seeds+len(d.Seeds), added+len(d.Add), edges+len(d.Edges), batches+1
			if r > 0 && block == 0 {
				latA = append(latA, ms)
			}
			if traced {
				tr.time("core.mine_seeds", root, opID, func() { sink += len(sys.Miner.MineSeeds(sys.Click, d.Seeds)) })
				tr.time("delta.apply", root, opID, func() {
					if next, err := delta.Apply(cur, d); err == nil {
						sink += next.Len()
					}
				})
			}
		}
	}
	ix := indexSpans(tr.spans)
	if err := finishTrace(cfg, rep, tr, median(ix.durations("giant.Ingest", nil))/median(latA), latA); err != nil {
		return nil, err
	}
	for name, span := range map[string]string{
		"synth.gen_ms": "synth.gen", "clickgraph.build_ms": "clickgraph.build",
		"core.train_phrase_ms": "core.train_phrase", "core.train_key_ms": "core.train_key", "core.mine_ms": "core.mine",
		"core.mine_seeds_ms": "core.mine_seeds", "delta.apply_ms": "delta.apply",
	} {
		m[name] = median(ix.durations(span, nil))
	}
	m["giant.build_self_ms"] = median(ix.selves("giant.Build", nil))
	m["giant.ingest_self_ms"] = median(ix.selves("giant.Ingest", nil))
	m["delta.seeds_per_batch"] = float64(seeds) / float64(batches)
	m["delta.nodes_added_per_batch"] = float64(added) / float64(batches)
	m["delta.edges_per_batch"] = float64(edges) / float64(batches)
	snap := sys.Snapshot()
	m["ontology.nodes_final"] = float64(snap.NodeCount())
	m["ontology.edges_final"] = float64(snap.EdgeCount())
	m["out.fingerprint"] = float64(fingerprint(snap))
	return rep, nil
}
