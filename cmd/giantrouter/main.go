// Command giantrouter is the front door of the multi-process serving
// tier: a thin HTTP daemon that fans requests out over K per-shard giantd
// backends (giantd -shard i/k), speaking the same ontology.HomeShard
// phrase hash the in-process sharded server uses.
//
//	# export one file per shard, boot one giantd per shard, then the router:
//	giantctl shard -in ao.bin -shards 2 -out-dir shards
//	giantd -in shards/shard-0-of-2.bin -shard 0/2 -addr :8081 &
//	giantd -in shards/shard-1-of-2.bin -shard 1/2 -addr :8082 &
//	giantrouter -addr :8080 -backends http://localhost:8081,http://localhost:8082
//
//	curl localhost:8080/healthz                      # per-backend health
//	curl 'localhost:8080/v1/search?q=sedan'          # scatter-gather merge
//	curl 'localhost:8080/v1/node?phrase=family+sedans&type=concept'
//	curl localhost:8080/v1/stats                     # per-shard generations
//
// Backends are listed in shard order: -backends URL_0,URL_1,...,URL_{k-1}
// where URL_i serves shard i of k (the router cross-checks this against
// the shard identity each backend reports: /healthz shows a misplaced
// backend as unhealthy and the fleet as degraded, and /v1/stats answers
// 502). /v1/search, /v1/node,
// /v1/tag, /v1/query/rewrite and /v1/story responses are byte-identical
// to a single sharded giantd over the same world — the application
// endpoints gather each shard's ?partial= candidates and run the same
// merge the backends run internally, rather than proxying one shard's
// approximation.
//
// A fleet changes only through its one delta log. Without -wal the router
// fronts a frozen fleet and is read-only: /v1/ingest answers 503
// unavailable, and the fleet changes by restarting its backends on new
// shard files.
//
// Reads are routed, not blindly scattered: the router keeps a term→shard
// routing index built from each backend's /v1/stats term grams and
// consults only the shards that can match the query (or the tag
// document's entities and matching text); ?scatter=full on any search
// bypasses routing for debugging. The router caches no per-shard answers:
// every consulted shard is asked on every request.
//
// Degraded mode is configurable: by default fan-out reads fail closed
// with 503 when a backend is unreachable; with -fail-open they return the
// reachable shards' results marked "partial": true — uniformly across
// search, tag, query rewrite, story and scattered node lookups. A typed
// node lookup (and a story seed resolution) answers 502 when the one
// home shard that could hold the phrase is down, and ingest is always
// fail-closed.
//
// With -wal DIR the router accepts writes, and each shard may list
// multiple replicas, separated by "|" within the comma-separated shard
// list (every replica a giantd started with the same -shard i/k plus -wal
// DIR):
//
//	giantd -build -tiny -shard 0/2 -wal /var/giant/wal -replica 0 -addr :8081 &
//	giantd -build -tiny -shard 0/2 -wal /var/giant/wal -replica 1 -addr :8082 &
//	giantd -build -tiny -shard 1/2 -wal /var/giant/wal -replica 0 -addr :8083 &
//	giantd -build -tiny -shard 1/2 -wal /var/giant/wal -replica 1 -addr :8084 &
//	giantrouter -wal /var/giant/wal \
//	  -backends 'http://localhost:8081|http://localhost:8082,http://localhost:8083|http://localhost:8084'
//
//	curl -X POST localhost:8080/v1/ingest -d @batch.json   # appended once, quorum-acked
//
// Every read is then pinned to one log position, the newest every shard
// has a replica at, and each of its backend calls carries it: a replica
// answers from the state it held there or refuses and the read fails over,
// so a response is the fleet's world at exactly that position, named in
// its X-Giant-Wal-Gen header. Reads balance by power-of-two-choices over
// each shard's healthy replicas at or past it (a replica still tailing the
// log is never consulted for reads ahead of its position), and /v1/ingest
// appends each batch once
// to the fleet log DIR/fleet.wal, which every replica tails, acknowledging
// once a quorum of each shard's replicas confirm the apply. A shard whose slowest healthy
// replica trails the log head by more than 64 generations pushes back
// with 429 replica_lagging and a Retry-After header; each replica has 2
// minutes to confirm an apply in that quorum wait, and each backend read 5
// seconds to answer. Rolling restarts are zero-downtime: restart one
// replica at a time and it catches up from the log before re-entering
// read rotation.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"giant/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("giantrouter: ")
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		backends = flag.String("backends", "", "comma-separated per-shard giantd base URLs, in shard order (URL_i serves shard i)")
		failOpen = flag.Bool("fail-open", false, "serve partial fan-out results (marked \"partial\": true) instead of 503 when a shard is unreachable")
		probe    = flag.Duration("probe", 2*time.Second, "background health-probe interval (0 disables)")
		grace    = flag.Duration("grace", 5*time.Second, "graceful-shutdown drain timeout")
		walDir   = flag.String("wal", "", "delta-log directory: ingest appends to DIR/fleet.wal and acks at a replica quorum (backends must be giantd -wal replicas); without it the router is read-only")
		compact  = flag.Bool("compact", false, "with -wal: truncate the delta log below the fleet-wide applied floor, bounded by the published checkpoint (runs after each health-probe pass; replicas need -checkpoint-every)")
	)
	flag.Parse()
	if *backends == "" {
		log.Fatal("need -backends http://host:port,... (one per shard, in shard order; \"|\" separates a shard's replicas)")
	}
	if *compact && *walDir == "" {
		log.Printf("warning: -compact only applies to delta-log tiers (-wal); ignoring it")
	}
	replicas := make([][]string, 0)
	for _, spec := range strings.Split(*backends, ",") {
		urls := strings.Split(spec, "|")
		for i := range urls {
			urls[i] = strings.TrimSpace(strings.TrimRight(urls[i], "/"))
		}
		replicas = append(replicas, urls)
	}
	rt, err := serve.NewRouter(serve.RouterOptions{
		Replicas:      replicas,
		WALDir:        *walDir,
		Compact:       *compact,
		FailOpen:      *failOpen,
		ProbeInterval: *probe,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	mode := "fail-closed"
	if *failOpen {
		mode = "fail-open"
	}
	log.Printf("routing %d shards (%s) on %s", rt.NumShards(), mode, *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve.Run(ctx, *addr, rt.Handler(), *grace); err != nil {
		log.Fatal(err)
	}
	log.Printf("shut down cleanly")
}
