// Command giantctl runs the GIANT pipeline end to end and interacts with the
// resulting Attention Ontology:
//
//	giantctl build -out ao.json        build the ontology and save it
//	giantctl update -in ao.json -docs new.json -out ao2.json
//	                                   apply incremental update batches offline
//	giantctl shard -in ao.json -shards 2
//	                                   export per-shard GIANTBIN projections
//	giantctl convert -in ao.json -out ao.bin -format binary
//	                                   re-encode a snapshot artifact
//	giantctl stats -in ao.json         print node/edge statistics
//	giantctl query -q "best ..."       conceptualize/rewrite a query
//	giantctl tag -title "..."          tag a document
//	giantctl story -seed "..."         print a story tree
//	giantctl help                      print usage
//
// build runs the full pipeline (generate logs, train GCTSP-Net, mine, link);
// the other subcommands rebuild the same deterministic system unless -in
// points to a saved ontology. update replays one or more delta.Batch JSON
// documents (new docs + clicks) through delta mining against the -in
// ontology and writes the updated generation. Like query/tag/story, update
// first rebuilds the deterministic system (it needs the trained models and
// the base click graph); the ontology itself is then advanced by deltas —
// only the affected cluster neighbourhood is re-mined per batch. The -in
// file must come from a build with the same configuration; batches that
// reference docs introduced by earlier update runs must be replayed in the
// same invocation (pass an array of batches in -docs).
//
// Exit codes (stable, for CI assertions): 0 success, 1 runtime failure,
// 2 usage error (unknown subcommand or bad/missing flags).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	giant "giant"
	"giant/internal/delta"
	"giant/internal/ontology"
	"giant/internal/tagging"
	"giant/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("giantctl: ")
	os.Exit(run(os.Args[1:]))
}

// run dispatches a subcommand and maps its outcome to the documented exit
// codes.
func run(args []string) int {
	if len(args) < 1 {
		usage(os.Stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "build":
		err = runBuild(rest)
	case "update":
		err = runUpdate(rest)
	case "shard":
		err = runShard(rest)
	case "convert":
		err = runConvert(rest)
	case "stats":
		err = runStats(rest)
	case "query":
		err = runQuery(rest)
	case "tag":
		err = runTag(rest)
	case "story":
		err = runStory(rest)
	case "checkpoint":
		err = runCheckpoint(rest)
	case "truncate":
		err = runTruncate(rest)
	case "help", "-h", "--help":
		usage(os.Stdout)
		return 0
	default:
		fmt.Fprintf(os.Stderr, "giantctl: unknown subcommand %q\n", cmd)
		usage(os.Stderr)
		return 2
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		// -h/-help on a subcommand: the flag set already printed its
		// usage; a help request is a success, not a usage error.
		return 0
	case isUsageError(err):
		log.Print(err)
		return 2
	default:
		log.Print(err)
		return 1
	}
}

// usageError marks failures that are the caller's fault (missing/invalid
// flags) so run can exit 2 instead of 1.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return usageError{fmt.Sprintf(format, args...)}
}

func isUsageError(err error) bool {
	var ue usageError
	return errors.As(err, &ue)
}

func usage(w *os.File) {
	fmt.Fprintln(w, `usage: giantctl <subcommand> [flags]

subcommands:
  build   build the ontology and save it           (-out ao.json [-format json|binary] [-tiny])
  shard   export per-shard GIANTBIN projections    (-in ao.json -shards K [-out-dir .])
  update  apply incremental update batches offline (-docs new.json [-in ao.json] [-out path] [-format json|binary] [-tiny])
  convert re-encode a snapshot artifact            (-in path -out path [-format json|binary])
  stats   print node/edge statistics               (-in ao.json)
  query   conceptualize/rewrite a query            (-q "best ...")
  tag     tag a document                           (-title "..." [-content ...] [-entities a,b])
  story   print a story tree                       ([-seed "..."])
  checkpoint  force a replica to roll a checkpoint (-addr http://host:port)
  truncate    inspect or compact the fleet delta log (-wal DIR [-below G] [-force])
  help    print this message

Snapshot artifacts are loadable in either format everywhere (-in flags,
giantd -in): loaders auto-detect by magic. JSON is the debug/interchange
format; binary (GIANTBIN) is the columnar format built for millisecond
boot, and the only format of shard files (giantd -shard i/k -in also
derives its shard from a whole-ontology file of either format).

exit codes: 0 success, 1 runtime failure, 2 usage error`)
}

// newFlagSet builds a flag set that reports parse failures as usage
// errors instead of exiting on its own.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usagef("%s: %v", fs.Name(), err)
	}
	return nil
}

func buildSystem(tiny bool) (*giant.System, error) {
	cfg := giant.DefaultConfig()
	if tiny {
		cfg = giant.TinyConfig()
	}
	return giant.Build(cfg)
}

// formatFlag registers the shared -format flag on a flag set.
func formatFlag(fs *flag.FlagSet) *string {
	return fs.String("format", "json", "output format: json or binary")
}

func runBuild(args []string) error {
	fs := newFlagSet("build")
	out := fs.String("out", "ao.json", "output path for the ontology")
	format := formatFlag(fs)
	tiny := fs.Bool("tiny", false, "use the tiny configuration")
	if err := parse(fs, args); err != nil {
		return err
	}
	ff, err := ontology.ParseFileFormat(*format)
	if err != nil {
		return usagef("build: %v", err)
	}
	sys, err := buildSystem(*tiny)
	if err != nil {
		return err
	}
	snap := sys.Snapshot()
	if err := snap.SaveFileFormat(*out, ff); err != nil {
		return err
	}
	st := snap.ComputeStats()
	fmt.Printf("built attention ontology: %v nodes, %v edges -> %s\n", st.NodesByType, st.EdgesByType, *out)
	return nil
}

// runUpdate is the offline incremental path: rebuild the deterministic
// models, adopt the -in ontology as the current generation, replay the
// -docs batches through delta mining, and save the updated generation.
func runUpdate(args []string) error {
	fs := newFlagSet("update")
	in := fs.String("in", "", "base ontology artifact, either format (default: the freshly built one)")
	docs := fs.String("docs", "", "update batch JSON: a delta.Batch object or an array of them (required)")
	out := fs.String("out", "ao-updated.json", "output path for the updated ontology")
	format := formatFlag(fs)
	tiny := fs.Bool("tiny", false, "use the tiny configuration (must match the build that produced -in)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *docs == "" {
		return usagef("update: -docs is required (a JSON delta.Batch or array of batches)")
	}
	ff, err := ontology.ParseFileFormat(*format)
	if err != nil {
		return usagef("update: %v", err)
	}
	batches, err := loadBatches(*docs)
	if err != nil {
		return err
	}
	sys, err := buildSystem(*tiny)
	if err != nil {
		return err
	}
	if *in != "" {
		base, err := ontology.LoadSnapshotFile(*in)
		if err != nil {
			return fmt.Errorf("update: load base ontology: %w", err)
		}
		sys.Ontology = ontology.FromSnapshot(base)
	}
	for i, b := range batches {
		_, d, err := sys.Ingest(b)
		if err != nil {
			return fmt.Errorf("update: batch %d: %w", i, err)
		}
		fmt.Printf("batch %d applied: %s\n", i, d.Summary())
	}
	snap := sys.Snapshot()
	if err := snap.SaveFileFormat(*out, ff); err != nil {
		return err
	}
	st := snap.ComputeStats()
	fmt.Printf("updated attention ontology: %v nodes, %v edges -> %s\n", st.NodesByType, st.EdgesByType, *out)
	return nil
}

// loadBatches reads either one delta.Batch or a JSON array of them.
func loadBatches(path string) ([]delta.Batch, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("update: read batches: %w", err)
	}
	trimmed := strings.TrimSpace(string(raw))
	if strings.HasPrefix(trimmed, "[") {
		var batches []delta.Batch
		if err := json.Unmarshal(raw, &batches); err != nil {
			return nil, usagef("update: %s is not a JSON array of delta batches: %v", path, err)
		}
		return batches, nil
	}
	var b delta.Batch
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, usagef("update: %s is not a JSON delta batch: %v", path, err)
	}
	return []delta.Batch{b}, nil
}

// runShard partitions a saved ontology K ways and exports one
// self-contained GIANTBIN projection file per shard — the boot artifacts
// for per-shard giantd processes (giantd -shard i/K -in shard-i-of-K.bin).
func runShard(args []string) error {
	fs := newFlagSet("shard")
	in := fs.String("in", "", "ontology artifact path, either format (from giantctl build -out)")
	shards := fs.Int("shards", 0, "shard count K (>= 1)")
	outDir := fs.String("out-dir", ".", "directory for the per-shard files")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usagef("shard: need -in <ontology artifact>")
	}
	if *shards < 1 {
		return usagef("shard: need -shards K (>= 1)")
	}
	snap, err := ontology.LoadSnapshotFile(*in)
	if err != nil {
		return err
	}
	ss, err := ontology.ShardSnapshot(snap, *shards)
	if err != nil {
		return err
	}
	for i := 0; i < ss.NumShards(); i++ {
		p := ss.Projection(i)
		path := fmt.Sprintf("%s/shard-%d-of-%d.bin", strings.TrimRight(*outDir, "/"), i, ss.NumShards())
		if err := p.SaveBinaryFile(path); err != nil {
			return err
		}
		fmt.Printf("shard %d/%d: %d home nodes (+%d ghosts), %d edges -> %s\n",
			i, ss.NumShards(), p.HomeCount, p.Snap.NodeCount()-p.HomeCount, p.Snap.EdgeCount(), path)
	}
	return nil
}

// runConvert re-encodes a snapshot artifact between JSON and GIANTBIN;
// JSON→binary→JSON round-trips byte-identically. Shard files have one
// format, so a shard file is refused (giantctl shard re-exports it).
func runConvert(args []string) error {
	fs := newFlagSet("convert")
	in := fs.String("in", "", "input snapshot artifact, either format (required)")
	out := fs.String("out", "", "output path (required)")
	format := fs.String("format", "binary", "output format: json or binary")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return usagef("convert: need -in <artifact> and -out <path>")
	}
	ff, err := ontology.ParseFileFormat(*format)
	if err != nil {
		return usagef("convert: %v", err)
	}
	snap, err := ontology.LoadSnapshotFile(*in)
	if err != nil {
		return err
	}
	if err := snap.SaveFileFormat(*out, ff); err != nil {
		return err
	}
	fmt.Printf("converted snapshot: %d nodes, %d edges -> %s (%s)\n",
		snap.NodeCount(), snap.EdgeCount(), *out, ff)
	return nil
}

func runStats(args []string) error {
	fs := newFlagSet("stats")
	in := fs.String("in", "ao.json", "ontology artifact, either format")
	if err := parse(fs, args); err != nil {
		return err
	}
	snap, err := ontology.LoadSnapshotFile(*in)
	if err != nil {
		return err
	}
	printStats(os.Stdout, snap.ComputeStats())
	return nil
}

// printStats prints the per-type counts in NodeType and EdgeType order,
// skipping types with no nodes or edges.
func printStats(w io.Writer, st ontology.Stats) {
	fmt.Fprintln(w, "nodes:")
	for t := ontology.NodeType(0); t < ontology.NumNodeTypes; t++ {
		if n, ok := st.NodesByType[t.String()]; ok {
			fmt.Fprintf(w, "  %-10s %d\n", t, n)
		}
	}
	fmt.Fprintln(w, "edges:")
	for t := ontology.EdgeType(0); t < ontology.NumEdgeTypes; t++ {
		if n, ok := st.EdgesByType[t.String()]; ok {
			fmt.Fprintf(w, "  %-10s %d\n", t, n)
		}
	}
}

func runQuery(args []string) error {
	fs := newFlagSet("query")
	q := fs.String("q", "", "query text")
	tiny := fs.Bool("tiny", true, "use the tiny configuration")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *q == "" {
		return usagef("query: -q is required")
	}
	sys, err := buildSystem(*tiny)
	if err != nil {
		return err
	}
	a := sys.Query().Analyze(*q)
	fmt.Printf("query:   %s\n", a.Query)
	fmt.Printf("concept: %s\n", orNone(a.Concept))
	fmt.Printf("entity:  %s\n", orNone(a.Entity))
	for _, r := range a.Rewrites {
		fmt.Printf("rewrite: %s\n", r)
	}
	for _, r := range a.Recommendations {
		fmt.Printf("related: %s\n", r)
	}
	return nil
}

func runTag(args []string) error {
	fs := newFlagSet("tag")
	title := fs.String("title", "", "document title")
	content := fs.String("content", "", "document content")
	entities := fs.String("entities", "", "comma-separated key entities")
	tiny := fs.Bool("tiny", true, "use the tiny configuration")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *title == "" && *content == "" {
		return usagef("tag: need -title or -content")
	}
	sys, err := buildSystem(*tiny)
	if err != nil {
		return err
	}
	doc := &tagging.Document{Title: *title, Content: *content}
	if *entities != "" {
		doc.Entities = strings.Split(*entities, ",")
	}
	for _, t := range sys.ConceptTagger().TagConcepts(doc) {
		fmt.Printf("concept tag: %-30s score %.3f\n", t.Phrase, t.Score)
	}
	for _, t := range sys.EventTagger().TagEvents(doc) {
		fmt.Printf("%s tag: %-30s score %.3f\n", t.Type, t.Phrase, t.Score)
	}
	return nil
}

func runStory(args []string) error {
	fs := newFlagSet("story")
	seed := fs.String("seed", "", "seed event phrase (empty: first mined event)")
	tiny := fs.Bool("tiny", true, "use the tiny configuration")
	if err := parse(fs, args); err != nil {
		return err
	}
	sys, err := buildSystem(*tiny)
	if err != nil {
		return err
	}
	phrase := *seed
	if phrase == "" {
		for _, m := range sys.Mined {
			if m.IsEvent {
				phrase = m.Phrase
				break
			}
		}
	}
	tree, ok := sys.StoryTree(phrase)
	if !ok {
		return fmt.Errorf("story: seed event %q not found among mined events", phrase)
	}
	tree.Render(os.Stdout)
	return nil
}

// runCheckpoint forces a replica to roll a checkpoint artifact at its
// current applied position (POST /v1/checkpoint, synchronous) — the
// operator's lever for bounding catch-up before a planned restart or a
// log truncation.
func runCheckpoint(args []string) error {
	fs := newFlagSet("checkpoint")
	addr := fs.String("addr", "", "replica base URL, e.g. http://localhost:8081 (required)")
	timeout := fs.Duration("timeout", 3*time.Minute, "request timeout (the roll is synchronous)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *addr == "" {
		return usagef("checkpoint: need -addr <replica base URL>")
	}
	url := strings.TrimRight(*addr, "/") + "/v1/checkpoint"
	client := &http.Client{Timeout: *timeout}
	resp, err := client.Post(url, "application/json", nil)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("checkpoint: %s answered %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	fmt.Println(strings.TrimSpace(string(body)))
	return nil
}

// runTruncate inspects the fleet's delta log (and its published
// checkpoint, if any) or, with -below, compacts it: records at or below the
// given generation are dropped by rewriting the log to the suffix. Run it
// only against a stopped tier or from the router's floor (giantrouter
// -compact automates the same cut); by default the cut refuses to pass the
// published checkpoint's covered position, because records above it are
// unrecoverable for a replica that has to rejoin from the artifact.
func runTruncate(args []string) error {
	fs := newFlagSet("truncate")
	dir := fs.String("wal", "", "delta-log directory (required)")
	below := fs.Uint64("below", 0, "drop records at or below this log generation (0: just print positions)")
	force := fs.Bool("force", false, "allow a cut above the published checkpoint's covered position")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return usagef("truncate: need -wal <dir>")
	}
	path := wal.LogPath(*dir)
	lg, err := wal.Open(path, 0, 1)
	if err != nil {
		return fmt.Errorf("truncate: %w", err)
	}
	defer lg.Close()
	var ckptGen uint64
	if meta, err := wal.ReadCheckpointMeta(wal.CheckpointPath(*dir)); err == nil {
		ckptGen = meta.WALGen
	}
	if *below == 0 {
		fmt.Printf("log %s: head %d, base %d, checkpoint covers %d\n", path, lg.Head(), lg.BaseGen(), ckptGen)
		return nil
	}
	if *below > ckptGen && !*force {
		return fmt.Errorf("truncate: cut %d passes the published checkpoint (covers %d): dropped records would be unrecoverable for a rejoining replica (re-run with -force, or roll a checkpoint first: giantctl checkpoint)", *below, ckptGen)
	}
	if err := lg.TruncateBelow(*below); err != nil {
		return fmt.Errorf("truncate: %w", err)
	}
	fmt.Printf("truncated %s below generation %d: head %d, base %d\n", path, *below, lg.Head(), lg.BaseGen())
	return nil
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}
