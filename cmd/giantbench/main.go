// Command giantbench regenerates every table and figure of the paper's
// evaluation section at the default (laptop) scale and prints them in the
// paper's layout. Use -scale=tiny for a fast smoke run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	giant "giant"
	"giant/internal/delta"
	"giant/internal/experiments"
	"giant/internal/ontology"
	"giant/internal/serve"
	"giant/internal/wal"
)

func main() {
	scaleFlag := flag.String("scale", "default", "experiment scale: tiny or default")
	only := flag.String("only", "", "run a single experiment: table1..table7, fig5, fig6, fig7, tagging, ablations")
	parallel := flag.Bool("parallel", false, "measure pipeline speedup: build at Parallelism=1 then GOMAXPROCS and verify identical output")
	catchup := flag.Bool("catchup", false, "measure replica catch-up: full delta-log replay vs checkpoint+suffix boot at 10/100/1000 logged generations, and verify identical worlds")
	catchupOut := flag.String("catchup-out", "BENCH_catchup.json", "with -catchup: where the JSON results are written")
	flag.Parse()

	scale := experiments.ScaleDefault
	if *scaleFlag == "tiny" {
		scale = experiments.ScaleTiny
	}
	if *parallel {
		if err := runParallel(scale); err != nil {
			log.Fatalf("giantbench: %v", err)
		}
		return
	}
	if *catchup {
		if err := runCatchupBench(*catchupOut); err != nil {
			log.Fatalf("giantbench: %v", err)
		}
		return
	}
	t0 := time.Now()
	env, err := experiments.GetEnv(scale)
	if err != nil {
		log.Fatalf("giantbench: build environment: %v", err)
	}
	fmt.Printf("environment built in %v (scale=%s)\n\n", time.Since(t0).Round(time.Millisecond), *scaleFlag)

	run := func(name string) bool { return *only == "" || *only == name }
	w := os.Stdout

	if run("table1") {
		experiments.PrintTable1(w, experiments.Table1(env))
		fmt.Fprintln(w)
	}
	if run("table2") {
		experiments.PrintTable2(w, experiments.Table2(env))
		fmt.Fprintln(w)
	}
	if run("table3") {
		experiments.PrintShowcase(w, "Table 3: Concept showcases", experiments.Table3(env, 6))
		fmt.Fprintln(w)
	}
	if run("table4") {
		experiments.PrintShowcase(w, "Table 4: Event showcases", experiments.Table4(env, 6))
		fmt.Fprintln(w)
	}
	if run("table5") {
		experiments.PrintMethodScores(w, "Table 5: Concept mining", experiments.Table5(env))
		fmt.Fprintln(w)
	}
	if run("table6") {
		experiments.PrintMethodScores(w, "Table 6: Event mining", experiments.Table6(env))
		fmt.Fprintln(w)
	}
	if run("table7") {
		experiments.PrintKeyScores(w, experiments.Table7(env))
		fmt.Fprintln(w)
	}
	if run("fig5") {
		if _, s, err := experiments.Figure5(env); err == nil {
			fmt.Fprintln(w, "Figure 5: Story tree")
			fmt.Fprint(w, s)
		} else {
			fmt.Fprintf(w, "Figure 5 unavailable: %v\n", err)
		}
		fmt.Fprintln(w)
	}
	if run("fig6") {
		experiments.PrintCTRSeries(w, "Figure 6: CTR with/without extracted tags", experiments.Figure6(env))
		fmt.Fprintln(w)
	}
	if run("fig7") {
		experiments.PrintCTRSeries(w, "Figure 7: CTR by tag type", experiments.Figure7(env))
		fmt.Fprintln(w)
	}
	if run("tagging") {
		p := experiments.DocTaggingPrecision(env, 2000)
		fmt.Fprintf(w, "Document tagging (§5.3): concept precision %.0f%% (%d/%d docs tagged), event precision %.0f%% (%d/%d docs tagged)\n\n",
			100*p.ConceptPrecision, p.ConceptTagged, p.ConceptDocs,
			100*p.EventPrecision, p.EventTagged, p.EventDocs)
		hit, total := experiments.QueryUnderstanding(env, 200)
		fmt.Fprintf(w, "Query conceptualization: %d/%d concept queries recovered\n\n", hit, total)
	}
	if run("ablations") {
		printAblations(w, "Ablation: QTIG keep-first-edge", experiments.AblationKeepFirstEdge(env))
		printAblations(w, "Ablation: dependency edges", experiments.AblationEdgePreference(env))
		printAblations(w, "Ablation: ATSP decoding", experiments.AblationATSP(env))
		printAblations(w, "Ablation: R-GCN depth", experiments.AblationRGCNDepth(env))
		printAblations(w, "Ablation: node features", experiments.AblationFeatures(env))
	}
	fmt.Printf("total time %v\n", time.Since(t0).Round(time.Millisecond))
}

// runParallel times the full pipeline at Parallelism=1 and
// Parallelism=GOMAXPROCS and checks the two ontologies serialize
// identically, so the reported speedup is measured on provably equivalent
// work.
func runParallel(scale experiments.Scale) error {
	cfg := giant.DefaultConfig()
	if scale == experiments.ScaleTiny {
		cfg = giant.TinyConfig()
	}

	build := func(p int) (*giant.System, time.Duration, error) {
		c := cfg
		c.Parallelism = p
		t0 := time.Now()
		sys, err := giant.Build(c)
		return sys, time.Since(t0), err
	}

	fmt.Println("pipeline parallelism benchmark")
	seq, dSeq, err := build(1)
	if err != nil {
		return fmt.Errorf("sequential build: %w", err)
	}
	fmt.Printf("  parallelism=1:  %v\n", dSeq.Round(time.Millisecond))

	workers := runtime.GOMAXPROCS(0)
	par, dPar, err := build(workers)
	if err != nil {
		return fmt.Errorf("parallel build: %w", err)
	}
	fmt.Printf("  parallelism=%d: %v\n", workers, dPar.Round(time.Millisecond))

	var a, b bytes.Buffer
	if err := seq.Snapshot().WriteJSON(&a); err != nil {
		return err
	}
	if err := par.Snapshot().WriteJSON(&b); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("ontologies differ between parallelism 1 and %d", workers)
	}
	st := par.Snapshot().ComputeStats()
	fmt.Printf("  output identical: %v nodes, %v edges\n", st.NodesByType, st.EdgesByType)
	if dPar > 0 {
		fmt.Printf("  speedup: %.2fx on %d worker(s)\n", dSeq.Seconds()/dPar.Seconds(), workers)
	}
	return nil
}

// catchupHost is the catch-up benchmark's deterministic apply host: a
// union lineage advanced by a synthetic delta derived from the batch
// alone, plus the checkpoint save/restore pair — the same host contract
// cmd/giantd wires System.IngestShared, CheckpointState and
// RestoreCheckpoint into, with a constant per-record apply cost so the
// measured curve is the replication machinery's, not the miner's.
type catchupHost struct {
	cur *ontology.Snapshot
}

func (h *catchupHost) ingest(b delta.Batch, _ wal.Record) (*ontology.Snapshot, *ontology.Snapshot, *delta.Delta, error) {
	if b.Day <= 0 {
		return nil, nil, nil, fmt.Errorf("empty batch: %w", delta.ErrInvalidBatch)
	}
	d := &delta.Delta{Day: b.Day, Add: []delta.NodeAdd{
		{Type: ontology.Concept, Phrase: fmt.Sprintf("synthetic concept %d", b.Day), Day: b.Day},
		{Type: ontology.Event, Phrase: fmt.Sprintf("synthetic event %d", b.Day), Day: b.Day},
	}}
	prev := h.cur
	next, err := delta.Apply(prev, d)
	if err != nil {
		return nil, nil, nil, err
	}
	h.cur = next
	return prev, next, d, nil
}

func (h *catchupHost) save() (*ontology.Snapshot, []byte, error) {
	blob, err := json.Marshal(map[string]int{"nodes": h.cur.NodeCount(), "edges": h.cur.EdgeCount()})
	return h.cur, blob, err
}

func (h *catchupHost) restore(snap *ontology.Snapshot, state []byte) error {
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

// catchupBoot is one simulated replica boot: server, follower goroutine,
// and the host whose lineage the follower advances.
type catchupBoot struct {
	srv    *serve.Server
	host   *catchupHost
	cancel context.CancelFunc
	done   chan struct{}
	runErr error // follower exit error; read only after done is closed
}

// bootCatchupReplica boots a replica over the log in dir the way giantd
// -wal does: hydrate=false starts from the base world and replays the
// whole log; hydrate=true walks the checkpoint ladder and tails only the
// suffix past the artifact.
func bootCatchupReplica(dir string, base *ontology.ShardProjection, hydrate bool) (*catchupBoot, error) {
	host := &catchupHost{cur: base.Snap}
	opts := serve.Options{
		ShardIngest:       host.ingest,
		CheckpointSave:    host.save,
		CheckpointRestore: host.restore,
	}
	var srv *serve.Server
	var start wal.CheckpointMeta
	if hydrate {
		var err error
		srv, start, err = serve.HydrateShard(dir, 0, 1, opts, nil)
		if err != nil {
			return nil, err
		}
		if srv == nil {
			return nil, fmt.Errorf("no usable checkpoint artifact in %s", dir)
		}
	} else {
		srv = serve.NewShard(base, opts)
	}
	fl, err := serve.NewFollower(srv, serve.FollowerOptions{
		Dir:   dir,
		Poll:  time.Millisecond,
		Start: start,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	b := &catchupBoot{srv: srv, host: host, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(b.done)
		b.runErr = fl.Run(ctx)
	}()
	return b, nil
}

// waitApplied blocks until the follower has applied log position target
// or the timeout lapses, through the replica's own GET /v1/wal?wait=,
// which wakes on every applied record.
func (b *catchupBoot) waitApplied(target uint64, timeout time.Duration) error {
	url := fmt.Sprintf("/v1/wal?wait=%d&timeout_ms=%d", target, timeout.Milliseconds())
	rec := httptest.NewRecorder()
	b.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	var pos struct {
		Applied bool   `json:"applied"`
		WALGen  uint64 `json:"wal_gen"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &pos); err != nil {
		return fmt.Errorf("replica /v1/wal: %w", err)
	}
	if !pos.Applied {
		select {
		case <-b.done:
			return fmt.Errorf("follower stopped at log position %d: %v", pos.WALGen, b.runErr)
		default:
			return fmt.Errorf("timed out at log position %d waiting for %d", pos.WALGen, target)
		}
	}
	return nil
}

func (b *catchupBoot) stop() {
	b.cancel()
	<-b.done
}

// runCatchupBench measures how long a restarting replica takes to be
// serving at the log head, as a function of log length: a full replay
// from generation zero (linear in the log) against a checkpoint+suffix
// boot (decode the artifact, tail the last few records — flat). Before
// any number is reported the two boot paths are verified to produce
// byte-identical worlds. Results go to outPath as JSON, one row per log
// length.
func runCatchupBench(outPath string) error {
	baseOnt := ontology.New()
	root := baseOnt.AddNode(ontology.Category, "auto")
	seedConcept := baseOnt.AddNode(ontology.Concept, "family sedans")
	if err := baseOnt.AddEdge(root, seedConcept, ontology.IsA, 1); err != nil {
		return err
	}
	base, err := ontology.Project(baseOnt.Snapshot(), 0, 1)
	if err != nil {
		return err
	}

	const suffix = 5 // records past the checkpoint: the constant-size tail a fresh artifact leaves
	const rounds = 3
	type row struct {
		Generations  int     `json:"generations"`
		SuffixGens   int     `json:"suffix_generations"`
		FullReplayMS float64 `json:"full_replay_ms"`
		CheckpointMS float64 `json:"checkpoint_ms"`
		Speedup      float64 `json:"speedup"`
	}
	var rows []row
	fmt.Println("replica catch-up benchmark: full replay vs checkpoint+suffix boot")
	for _, n := range []int{10, 100, 1000} {
		dir, err := os.MkdirTemp("", "giantbench-catchup-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		lg, err := wal.Create(wal.LogPath(dir), 0, 1)
		if err != nil {
			return err
		}
		appendDays := func(from, to int) error {
			for d := from; d <= to; d++ {
				if _, err := lg.Append(d, []byte(fmt.Sprintf(`{"day":%d}`, d))); err != nil {
					return err
				}
			}
			return nil
		}

		// A writer replica applies the prefix, publishes a checkpoint
		// artifact covering it (exactly what a cadence roll does), and
		// then applies the suffix so the log head sits past the artifact.
		ckptAt := n - suffix
		if err := appendDays(1, ckptAt); err != nil {
			return err
		}
		writer, err := bootCatchupReplica(dir, base, false)
		if err != nil {
			return err
		}
		if err := writer.waitApplied(uint64(ckptAt), time.Minute); err != nil {
			return err
		}
		snap, blob, err := writer.host.save()
		if err != nil {
			return err
		}
		var encoded bytes.Buffer
		if err := ontology.EncodeSnapshotBinary(&encoded, snap, uint64(ckptAt)); err != nil {
			return err
		}
		if err := wal.PublishCheckpoint(dir, &wal.Checkpoint{
			CheckpointMeta: wal.CheckpointMeta{WALGen: uint64(ckptAt), ServingGens: []uint64{writer.srv.Generation()}},
			Snapshot:       encoded.Bytes(),
			State:          blob,
		}); err != nil {
			return err
		}
		if err := appendDays(ckptAt+1, n); err != nil {
			return err
		}
		if err := writer.waitApplied(uint64(n), time.Minute); err != nil {
			return err
		}
		writer.stop()
		if err := lg.Close(); err != nil {
			return err
		}

		// Time both boot paths to the same target: every log record
		// applied.
		target := uint64(n)
		timedBoot := func(hydrate bool) (time.Duration, []byte, error) {
			var best time.Duration
			var world []byte
			for i := 0; i < rounds; i++ {
				t0 := time.Now()
				b, err := bootCatchupReplica(dir, base, hydrate)
				if err != nil {
					return 0, nil, err
				}
				err = b.waitApplied(target, time.Minute)
				d := time.Since(t0)
				b.stop()
				if err != nil {
					return 0, nil, err
				}
				if best == 0 || d < best {
					best = d
				}
				var buf bytes.Buffer
				if err := b.host.cur.WriteBinary(&buf); err != nil {
					return 0, nil, err
				}
				world = buf.Bytes()
			}
			return best, world, nil
		}
		dFull, wFull, err := timedBoot(false)
		if err != nil {
			return fmt.Errorf("full replay at %d generations: %w", n, err)
		}
		dCkpt, wCkpt, err := timedBoot(true)
		if err != nil {
			return fmt.Errorf("checkpoint boot at %d generations: %w", n, err)
		}
		if !bytes.Equal(wFull, wCkpt) {
			return fmt.Errorf("at %d generations the two boot paths serve different worlds", n)
		}
		speedup := 0.0
		if dCkpt > 0 {
			speedup = dFull.Seconds() / dCkpt.Seconds()
		}
		fmt.Printf("  %4d generations: full replay %10v, checkpoint+suffix %10v  (%.1fx; worlds identical)\n",
			n, dFull.Round(time.Microsecond), dCkpt.Round(time.Microsecond), speedup)
		rows = append(rows, row{
			Generations:  n,
			SuffixGens:   suffix,
			FullReplayMS: float64(dFull.Microseconds()) / 1000,
			CheckpointMS: float64(dCkpt.Microseconds()) / 1000,
			Speedup:      speedup,
		})
	}

	out, err := json.MarshalIndent(map[string]any{
		"bench":  "replica catch-up: full delta-log replay vs checkpoint+suffix boot",
		"rounds": rounds,
		"rows":   rows,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  results written to %s\n", outPath)
	return nil
}

func printAblations(w *os.File, title string, rows []experiments.AblationResult) {
	fmt.Fprintln(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-30s EM %.4f  F1 %.4f  COV %.4f\n", r.Name, r.Score.EM, r.Score.F1, r.Score.COV)
	}
	fmt.Fprintln(w)
}
