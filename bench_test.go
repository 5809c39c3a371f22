package giant_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus throughput benches for the §5.1 deployment
// numbers and the ablation studies indexed in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The shared environment (world, click log, trained models, built ontology)
// is constructed once and reused; each benchmark measures the cost of
// regenerating its experiment from that environment.

import (
	"fmt"
	"runtime"
	"testing"

	giant "giant"
	"giant/internal/core"
	"giant/internal/delta"
	"giant/internal/experiments"
	"giant/internal/tagging"
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	scale := experiments.ScaleDefault
	if testing.Short() {
		scale = experiments.ScaleTiny
	}
	env, err := experiments.GetEnv(scale)
	if err != nil {
		b.Fatalf("build environment: %v", err)
	}
	return env
}

func BenchmarkTable1NodeCounts(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(env)
		if len(rows) != 5 {
			b.Fatalf("expected 5 node-type rows, got %d", len(rows))
		}
	}
}

func BenchmarkTable2EdgeStats(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(env)
		if len(rows) != 3 {
			b.Fatalf("expected 3 edge-type rows, got %d", len(rows))
		}
	}
}

func BenchmarkTable3ConceptShowcase(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table3(env, 6)
	}
}

func BenchmarkTable4EventShowcase(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table4(env, 6)
	}
}

func BenchmarkTable5ConceptMining(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table5(env)
		reportBest(b, rows, "GCTSP-Net")
	}
}

func BenchmarkTable6EventMining(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table6(env)
		reportBest(b, rows, "GCTSP-Net")
	}
}

func BenchmarkTable7KeyElements(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table7(env)
		if len(rows) != 3 {
			b.Fatalf("expected 3 methods, got %d", len(rows))
		}
		b.ReportMetric(rows[len(rows)-1].Micro, "gctsp-f1micro")
	}
}

func BenchmarkFigure5StoryTree(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure5(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6CTRStrategies(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := experiments.Figure6(env)
		if len(series) != 2 {
			b.Fatal("expected 2 strategies")
		}
		b.ReportMetric(series[0].Mean, "allTagsCTR%")
		b.ReportMetric(series[1].Mean, "catEntCTR%")
	}
}

func BenchmarkFigure7CTRByTagType(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := experiments.Figure7(env)
		if len(series) != 5 {
			b.Fatal("expected 5 tag types")
		}
		b.ReportMetric(series[0].Mean, "topicCTR%")
		b.ReportMetric(series[4].Mean, "categoryCTR%")
	}
}

// BenchmarkPipelineBuild measures the wall-clock cost of the full pipeline
// (log generation, GCTSP-Net training, Algorithm-1 mining, ontology
// assembly) at Parallelism 1 versus GOMAXPROCS. Compare the two sub-bench
// times to read the speedup; the equivalence test in parallel_test.go proves
// the outputs are identical.
func BenchmarkPipelineBuild(b *testing.B) {
	workers := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workers = append(workers, n)
	} else {
		// Still exercise the pooled path on a single-core runner.
		workers = append(workers, 4)
	}
	for _, p := range workers {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			cfg := giant.DefaultConfig()
			if testing.Short() {
				cfg = giant.TinyConfig()
			}
			cfg.Parallelism = p
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := giant.Build(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// coldMiner returns a miner over the environment's trained models with an
// empty memo. The mining benchmarks take one per iteration: the system's own
// miner has mined this graph before and would answer every cluster from its
// memo, leaving only the walks to time.
func coldMiner(env *experiments.Env, parallelism int) *core.Miner {
	own := env.Sys.Miner
	m := core.NewMiner(own.Phrase, own.Keys, own.Lex)
	m.Parallelism = parallelism
	return m
}

// BenchmarkMiningParallelism isolates the Algorithm-1 mining stage (the
// pipeline's hot loop) at worker counts 1, 2, 4, ... up to GOMAXPROCS×2.
func BenchmarkMiningParallelism(b *testing.B) {
	env := benchEnv(b)
	for p := 1; p <= 2*runtime.GOMAXPROCS(0); p *= 2 {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(coldMiner(env, p).Mine(env.Sys.Click)) == 0 {
					b.Fatal("nothing mined")
				}
			}
		})
	}
}

// BenchmarkIngestBatch measures the incremental-update path: one
// click-only batch through delta mining, diff and snapshot apply — the
// cost of keeping the served ontology fresh without a rebuild. Compare
// against BenchmarkPipelineBuild to read the incremental speedup. TTLs
// are disabled so every iteration measures the steady-state touch batch,
// not a one-off mass retirement on the first pass.
//
// The batch re-observes known clicks, so it moves weights but little text
// and the miner answers most of its clusters from its memo. afterbuild
// times from the first batch a freshly built system sees (the memo holds
// what the build's full Mine left); warm lets 20 batches through first, so
// even a single timed iteration is a steady-state one. reused/op and
// remined/op are the clusters per batch that skipped and ran inference.
func BenchmarkIngestBatch(b *testing.B) {
	for _, mode := range []struct {
		name   string
		warmup int
	}{{"afterbuild", 0}, {"warm", 20}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := giant.DefaultConfig()
			if testing.Short() {
				cfg = giant.TinyConfig()
			}
			cfg.Update = delta.Policy{EventTTL: 0, ConceptTTL: 0, TopicTTL: 0}
			sys, err := giant.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Re-click a slice of the existing corpus: a steady-state batch
			// where most mined attentions are touches.
			batch := delta.Batch{Day: 64}
			for i, r := range sys.Log.Records {
				if i%16 == 0 {
					batch.Clicks = append(batch.Clicks, delta.Click{Query: r.Query, DocID: r.DocID, Clicks: 1, Day: 64})
				}
			}
			for i := 0; i < mode.warmup; i++ {
				if _, _, err := sys.Ingest(batch); err != nil {
					b.Fatal(err)
				}
			}
			reused0, remined0 := sys.Miner.MemoStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.Ingest(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reused, remined := sys.Miner.MemoStats()
			b.ReportMetric(float64(reused-reused0)/float64(b.N), "reused/op")
			b.ReportMetric(float64(remined-remined0)/float64(b.N), "remined/op")
		})
	}
}

// BenchmarkIngestSmallBatch measures the per-batch fixed cost of the
// incremental path: a 3-click batch re-mines a handful of seeds, so what is
// left is everything Ingest does regardless of batch size (snapshot
// adoption, inventory-wide linking, and the node/edge copies and CSR
// rebuild inside delta apply — its index work is proportional to the
// delta). BenchmarkIngestBatch next
// to it is dominated by mining. The default-scale world (skipped under
// -short) shows how that fixed cost grows with the ontology.
func BenchmarkIngestSmallBatch(b *testing.B) {
	worlds := []string{"tiny"}
	if !testing.Short() {
		worlds = append(worlds, "default")
	}
	for _, world := range worlds {
		b.Run("world="+world, func(b *testing.B) {
			cfg := giant.TinyConfig()
			if world == "default" {
				cfg = giant.DefaultConfig()
			}
			cfg.Update = delta.Policy{EventTTL: 0, ConceptTTL: 0, TopicTTL: 0}
			sys, err := giant.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Rotate through the log three clicks at a time so successive
			// iterations touch different clusters.
			recs := sys.Log.Records
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := delta.Batch{Day: 64}
				for j := 0; j < 3; j++ {
					r := recs[(3*i+j)%len(recs)]
					batch.Clicks = append(batch.Clicks, delta.Click{Query: r.Query, DocID: r.DocID, Clicks: 1, Day: 64})
				}
				if _, _, err := sys.Ingest(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMiningThroughput(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	mined := 0
	for i := 0; i < b.N; i++ {
		mined += len(coldMiner(env, env.Sys.Miner.Parallelism).Mine(env.Sys.Click))
	}
	b.ReportMetric(float64(mined)/b.Elapsed().Seconds(), "phrases/s")
}

func BenchmarkTaggingThroughput(b *testing.B) {
	env := benchEnv(b)
	ct := env.Sys.ConceptTagger()
	docs := env.Sys.Log.Docs
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		d := &docs[i%len(docs)]
		ents := make([]string, 0, len(d.Entities))
		for _, id := range d.Entities {
			ents = append(ents, env.World.Entities[id].Name)
		}
		ct.TagConcepts(&tagging.Document{ID: d.ID, Title: d.Title, Content: d.Content, Entities: ents})
		n++
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "docs/s")
}

func BenchmarkDocTaggingPrecision(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The log lists all concept docs before any event doc, so the cap
		// must span both populations.
		p := experiments.DocTaggingPrecision(env, 2000)
		b.ReportMetric(100*p.ConceptPrecision, "concept%")
		b.ReportMetric(100*p.EventPrecision, "event%")
	}
}

func BenchmarkAblationKeepFirstEdge(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AblationKeepFirstEdge(env)
	}
}

func BenchmarkAblationEdgePreference(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AblationEdgePreference(env)
	}
}

func BenchmarkAblationATSPvsOrder(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AblationATSP(env)
	}
}

func BenchmarkAblationRGCNDepth(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AblationRGCNDepth(env)
	}
}

func BenchmarkAblationFeatures(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AblationFeatures(env)
	}
}

func reportBest(b *testing.B, rows []experiments.MethodScore, want string) {
	b.Helper()
	bestEM, bestName := -1.0, ""
	for _, r := range rows {
		if r.EM > bestEM {
			bestEM, bestName = r.EM, r.Method
		}
	}
	if bestName != want {
		b.Logf("note: best EM method is %s (%.4f), paper expects %s to win", bestName, bestEM, want)
	}
	b.ReportMetric(bestEM, "bestEM")
}
