package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"giant/internal/ontology"
	"giant/internal/serve"
)

func watchOntology(n int) *ontology.Snapshot {
	o := ontology.New()
	for i := 0; i < n; i++ {
		o.AddNode(ontology.Concept, fmt.Sprintf("concept %d", i))
	}
	return o.Snapshot()
}

// waitForGen polls the server until it serves the wanted generation.
func waitForGen(t *testing.T, srv *serve.Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Generation() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("generation = %d, want %d", srv.Generation(), want)
}

// TestShardBuildRequiresWAL: a per-shard daemon that builds its own world
// changes only by tailing the fleet's delta log, so -shard with -build and
// no -wal is refused before anything is built.
func TestShardBuildRequiresWAL(t *testing.T) {
	err := run("", "127.0.0.1:0", true, true, 0, time.Second, 0, 0, 1, "0/2", "", 0, 0)
	if err == nil || !strings.Contains(err.Error(), "requires -wal") {
		t.Fatalf("-shard 0/2 -build without -wal = %v, want a requires -wal error", err)
	}
}

// TestWatchPathRetriesTransientFailure covers the -watch retry path: a
// changed file that fails to load (half-written artifact) must leave the
// current generation serving and be retried on later ticks — without
// advancing the recorded modification time — so that a later successful
// read publishes EXACTLY one new generation.
func TestWatchPathRetriesTransientFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ao.json")
	if err := watchOntology(3).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, base, base); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(watchOntology(3), serve.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	w := newWatcher(path) // synchronous: captures the pre-change mtime
	go func() {
		defer close(done)
		w.run(ctx, 3*time.Millisecond, snapshotApplier(path, srv))
	}()

	// Transient failure: the file changes but is unreadable garbage. The
	// watcher must keep serving generation 1 across several retry ticks.
	if err := os.WriteFile(path, []byte(`{"nodes": [not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, base.Add(time.Minute), base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond) // > 10 ticks of retries
	if gen := srv.Generation(); gen != 1 {
		t.Fatalf("unreadable file published generation %d", gen)
	}

	// Recovery: the file becomes valid. Without touching the mtime again,
	// the pending retry must pick it up and publish exactly one new
	// generation.
	if err := watchOntology(5).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, base.Add(time.Minute), base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	waitForGen(t, srv, 2)
	if srv.Current().NodeCount() != 5 {
		t.Fatalf("recovered generation serves %d nodes, want 5", srv.Current().NodeCount())
	}
	// Exactly one: further ticks must not republish an unchanged file.
	time.Sleep(40 * time.Millisecond)
	if gen := srv.Generation(); gen != 2 {
		t.Fatalf("stable file republished: generation %d", gen)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("watchPath did not stop on context cancellation")
	}
}

// TestWatchPathShardMode: the same watcher drives a per-shard server
// through SwapShard, with the same retry semantics.
func TestWatchPathShardMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.json")
	ss, err := ontology.ShardSnapshot(watchOntology(6), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Projection(1).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, base, base); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewShard(ss.Projection(1), serve.Options{})
	apply := func() (uint64, string, error) {
		p, err := ontology.LoadShardInput(path, 1, 2)
		if err != nil {
			return 0, "", err
		}
		gen, err := srv.SwapShard(p)
		return gen, p.Snap.String(), err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := newWatcher(path) // synchronous: captures the pre-change mtime
	go w.run(ctx, 3*time.Millisecond, apply)

	// Publish a grown shard file.
	ss2, err := ontology.ShardSnapshot(watchOntology(9), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss2.Projection(1).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, base.Add(time.Minute), base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	waitForGen(t, srv, 2)
}

func TestParseShardSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		i, k int
		ok   bool
	}{
		{"0/4", 0, 4, true},
		{"3/4", 3, 4, true},
		{"0/1", 0, 1, true},
		{"4/4", 0, 0, false},
		{"-1/4", 0, 0, false},
		{"1", 0, 0, false},
		{"a/b", 0, 0, false},
		{"", 0, 0, false},
		{"0/4x", 0, 0, false},
		{"0/4/9", 0, 0, false},
		{"1/2,", 0, 0, false},
		{" 0/4", 0, 0, false},
	} {
		i, k, err := parseShardSpec(tc.spec)
		if tc.ok && (err != nil || i != tc.i || k != tc.k) {
			t.Fatalf("parseShardSpec(%q) = %d, %d, %v", tc.spec, i, k, err)
		}
		if !tc.ok && err == nil {
			t.Fatalf("parseShardSpec(%q) accepted", tc.spec)
		}
	}
}
