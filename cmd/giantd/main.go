// Command giantd serves a built Attention Ontology over JSON-over-HTTP —
// the online tier the GIANT paper deploys against QQ Browser traffic (§4).
//
//	giantctl build -out ao.json       # offline: build the ontology
//	giantd -in ao.json -addr :8080    # online: serve it
//
// The -in artifact may be JSON or the GIANTBIN binary format (giantctl
// build -format binary / giantctl convert); the loader auto-detects by
// magic.
// Binary artifacts boot in milliseconds, which is what makes rolling
// restarts cheap at web scale. A served world changes only through a
// logged ingest or a restart: a daemon serving -in picks up a new artifact
// when it is restarted on it.
//
// With -build instead of -in, giantd runs the offline pipeline itself at
// startup (handy for demos; -tiny shrinks the build) and serves the result,
// keeping the trained event matcher and concept context for richer tagging.
// A whole-world daemon (no -shard) is frozen in either mode: POST
// /v1/ingest answers 503 unavailable, because a batch it applied would
// live only in this process's memory and a restart would drop it.
//
//	curl localhost:8080/healthz
//	curl localhost:8080/v1/stats
//	curl 'localhost:8080/v1/query/rewrite?q=best+family+sedans'
//
// SIGINT/SIGTERM shut the server down gracefully.
//
// With -shards K the ontology is cut into K home-shard projections:
// /healthz and /v1/stats list one row per shard, and /v1/search routes
// through the shards' term-gram index. The process still holds the union
// and answers every read from it through one response cache, so responses,
// node IDs included, are identical for every K (-shards 1, the default, is
// the same server with one shard).
//
// Live incremental updates go through a fleet, possibly of one: giantd
// -shard 0/1 -build -wal DIR behind giantrouter -wal DIR. The router
// appends each batch to the fleet's delta log before it acks, so an acked
// batch survives a restart of every process:
//
//	giantd -shard 0/1 -build -wal /var/giant -addr :8081
//	giantrouter -wal /var/giant -backends http://localhost:8081 -addr :8080
//	curl -X POST localhost:8080/v1/ingest -d '{"day":12,"docs":[...],"clicks":[...]}'
//
// With -shard i/k the daemon serves a SINGLE shard of a k-way partition —
// the backend of the multi-process tier (put cmd/giantrouter in front of k
// of these). /healthz and /v1/stats expose the shard id and per-shard
// generation, /v1/search scans only the shard's home nodes, and /v1/node
// resolves only nodes homed on the shard, rendering union node IDs so the
// router can merge responses byte-identically to a single sharded process.
// A per-shard daemon accepts no direct writes: a fleet changes only
// through its one delta log. With -in it serves a frozen shard (the
// artifact may be a GIANTBIN shard file written by `giantctl shard` or a
// whole-ontology file of either format, whose shard projection is then
// derived at boot), and /v1/ingest answers 503 unavailable; it changes by
// restarting on a new file.
//
// With -wal DIR (requires -shard i/k and -build; -shard with -build
// requires -wal) the daemon is a delta-log REPLICA: /v1/ingest answers
// 503 read_only_replica, and it instead tails the
// fleet's one append-only delta log DIR/fleet.wal (written by giantrouter
// -wal), applying each batch through its own full (deterministic) mining
// system. Its generation is the log position of the last batch whose
// delta touched its shard (0 before any). Every response carries
// X-Giant-Wal-Gen with the last applied log generation, and GET /v1/wal
// (?wait=G) exposes — and blocks on — apply progress; -replica N names the
// replica in /healthz and log lines. Start N replicas of every shard against one directory and put
// giantrouter -wal in front: reads balance over the caught-up replicas and
// ingest is acknowledged at a quorum of apply confirmations. With
// -checkpoint-every, any replica publishes the fleet checkpoint
// DIR/fleet.ckpt, and a replica of any shard boots from it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	giant "giant"
	"giant/internal/delta"
	"giant/internal/ontology"
	"giant/internal/serve"
	"giant/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("giantd: ")
	var (
		in      = flag.String("in", "", "ontology artifact path, JSON or binary (from giantctl build -out)")
		addr    = flag.String("addr", ":8080", "listen address")
		build   = flag.Bool("build", false, "run the offline pipeline at startup instead of loading -in (without -shard the server is still frozen: writes go through giantrouter -wal)")
		tiny    = flag.Bool("tiny", false, "with -build: use the tiny configuration")
		grace   = flag.Duration("grace", 5*time.Second, "graceful-shutdown drain timeout")
		shards  = flag.Int("shards", 1, "cut the ontology into K home-shard projections: per-shard /v1/stats rows and gram-routed search; reads answer from the union for every K")
		shard   = flag.String("shard", "", "serve a single shard of a k-way partition as i/k (e.g. 0/4): the per-shard backend of cmd/giantrouter")
		walDir  = flag.String("wal", "", "delta-log directory: tail DIR/fleet.wal, the only way a per-shard server changes (requires -shard and -build)")
		replica = flag.Int("replica", 0, "with -wal: this process's replica ordinal, reported in /healthz and log lines")
		ckpt    = flag.Uint64("checkpoint-every", 0, "with -wal: publish the fleet checkpoint DIR/fleet.ckpt every N applied log generations, and boot from the newest valid checkpoint (0 disables cadence rolls; POST /v1/checkpoint still forces one)")
	)
	flag.Parse()
	if *walDir != "" && *shard == "" {
		log.Fatal("-wal requires -shard i/k (a replica serves one shard)")
	}
	if *walDir != "" && !*build {
		log.Fatal("-wal requires -build (a replica applies each batch through its own mining system)")
	}
	if *ckpt > 0 && *walDir == "" {
		log.Printf("warning: -checkpoint-every only applies to delta-log replicas (-wal); ignoring it")
	}
	if err := run(*in, *addr, *build, *tiny, *grace, *shards, *shard, *walDir, *replica, *ckpt); err != nil {
		log.Fatal(err)
	}
}

// parseShardSpec parses an "i/k" shard identity. The whole spec must be
// consumed — trailing garbage would silently boot the wrong partition.
func parseShardSpec(spec string) (i, k int, err error) {
	is, ks, found := strings.Cut(spec, "/")
	if !found {
		return 0, 0, fmt.Errorf("invalid -shard %q (want i/k, e.g. 0/4)", spec)
	}
	i, err1 := strconv.Atoi(is)
	k, err2 := strconv.Atoi(ks)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("invalid -shard %q (want i/k, e.g. 0/4)", spec)
	}
	if k < 1 || i < 0 || i >= k {
		return 0, 0, fmt.Errorf("invalid -shard %q: shard index must be in [0,%d)", spec, k)
	}
	return i, k, nil
}

func run(in, addr string, build, tiny bool, grace time.Duration, shards int, shardSpec, walDir string, replica int, ckptEvery uint64) error {
	if shardSpec != "" {
		return runShard(in, addr, build, tiny, grace, shards, shardSpec, walDir, replica, ckptEvery)
	}
	var opts serve.Options
	var snap *ontology.Snapshot
	switch {
	case build:
		cfg := giant.DefaultConfig()
		if tiny {
			cfg = giant.TinyConfig()
		}
		log.Printf("building ontology (tiny=%v, shards=%d)...", tiny, shards)
		sys, err := giant.Build(cfg)
		if err != nil {
			return err
		}
		snap = sys.Snapshot()
		opts.ConceptContextFn = sys.ConceptContext
		opts.Duet = sys.EventTagger().Duet
	case in != "":
		var err error
		if snap, err = ontology.LoadSnapshotFile(in); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -in <ontology artifact> or -build (see giantctl build -out)")
	}
	sharded, err := ontology.ShardSnapshot(snap, shards)
	if err != nil {
		return err
	}

	srv := serve.NewSharded(sharded, opts)
	log.Printf("serving %s on %s (%d shards)", sharded.Union(), addr, sharded.NumShards())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = serve.Run(ctx, addr, srv.Handler(), grace)
	if err == nil {
		log.Printf("shut down cleanly")
	}
	return err
}

// logIngested reports an applied batch, followed by the miner's running
// totals: clusters answered from its memo and clusters sent through
// GCTSP-Net since the process started.
func logIngested(sys *giant.System, d *delta.Delta) {
	reused, remined := sys.Miner.MemoStats()
	log.Printf("ingested batch: %s; clusters so far: %d reused, %d re-mined", d.Summary(), reused, remined)
}

// runShard serves a single shard of a k-way partition (-shard i/k): the
// per-shard backend of the multi-process tier.
func runShard(in, addr string, build, tiny bool, grace time.Duration, shards int, shardSpec, walDir string, replica int, ckptEvery uint64) error {
	idx, k, err := parseShardSpec(shardSpec)
	if err != nil {
		return err
	}
	if build && walDir == "" {
		return fmt.Errorf("-shard with -build requires -wal (a per-shard server changes only through the fleet's delta log; serve a frozen shard with -in)")
	}
	if shards > 1 && shards != k {
		return fmt.Errorf("-shards %d conflicts with -shard %s (the shard count comes from i/k)", shards, shardSpec)
	}
	var opts serve.Options
	var proj *ontology.ShardProjection
	switch {
	case build:
		cfg := giant.DefaultConfig()
		if tiny {
			cfg = giant.TinyConfig()
		}
		cfg.Shards = k
		log.Printf("building ontology (tiny=%v) to serve shard %d/%d...", tiny, idx, k)
		sys, err := giant.Build(cfg)
		if err != nil {
			return err
		}
		if proj, err = sys.ShardProjection(idx); err != nil {
			return err
		}
		opts.ConceptContextFn = sys.ConceptContext
		opts.Duet = sys.EventTagger().Duet
		// The follower applies every log record through this process's own
		// (deterministic) apply path, mining the record only when no other
		// replica has mined it first (the mined outcomes beside the log),
		// and the server's generation moves to the record's log position
		// only when the delta touched ITS shard.
		opts.ShardIngest = func(b delta.Batch, rec wal.Record) (*ontology.ShardProjection, *delta.Delta, []bool, error) {
			next, d, touched, err := sys.IngestSharded(b, &wal.Outcome{Dir: walDir, Gen: rec.Gen, Payload: rec.Payload})
			if err != nil {
				return nil, nil, nil, err
			}
			logIngested(sys, d)
			return next.Projection(idx), d, touched, nil
		}
		// Checkpointing: capture pairs the union snapshot with the mining
		// system's post-seed delta state; restore replays both onto the
		// deterministic seed build this process just ran and re-derives the
		// shard's serving projection from the result.
		opts.CheckpointSave = func() (*ontology.Snapshot, []byte, error) {
			state, err := sys.CheckpointState()
			if err != nil {
				return nil, nil, err
			}
			return sys.Snapshot(), state, nil
		}
		opts.CheckpointRestore = func(snap *ontology.Snapshot, state []byte) (*ontology.ShardProjection, error) {
			if err := sys.RestoreCheckpoint(snap, state); err != nil {
				return nil, err
			}
			return sys.ShardProjection(idx)
		}
	case in != "":
		if proj, err = ontology.LoadShardInput(in, idx, k); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -in <shard or ontology artifact> or -build (see giantctl shard)")
	}

	// Boot ladder: a replica with a usable checkpoint beside the log boots
	// from the artifact and tails only the suffix past it; anything less
	// falls back to the fresh build + full replay.
	var srv *serve.Server
	var start wal.CheckpointMeta
	if walDir != "" {
		hydrated, meta, herr := serve.HydrateShard(walDir, idx, k, opts, log.Printf)
		if herr != nil {
			return herr
		}
		if hydrated != nil {
			srv, start = hydrated, meta
			proj = srv.ShardProjection()
		}
	}
	if srv == nil {
		srv = serve.NewShard(proj, opts)
	}
	log.Printf("serving shard %d/%d (%d home nodes, %s) on %s", idx, k, proj.HomeCount, proj.Snap, addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if walDir != "" {
		fl, err := serve.NewFollower(srv, serve.FollowerOptions{
			Dir:             walDir,
			Replica:         replica,
			Logf:            log.Printf,
			Start:           start,
			CheckpointEvery: ckptEvery,
		})
		if err != nil {
			return err
		}
		log.Printf("replica %d tailing delta log %s from generation %d (direct writes disabled)", replica, wal.LogPath(walDir), start.WALGen)
		go func() {
			if err := fl.Run(ctx); err != nil && ctx.Err() == nil {
				log.Printf("wal follower stopped: %v", err)
			}
		}()
	}

	err = serve.Run(ctx, addr, srv.Handler(), grace)
	if err == nil {
		log.Printf("shut down cleanly")
	}
	return err
}
