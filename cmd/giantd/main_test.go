package main

import (
	"strings"
	"testing"
	"time"
)

// TestShardBuildRequiresWAL: a per-shard daemon that builds its own world
// changes only by tailing the fleet's delta log, so -shard with -build and
// no -wal is refused before anything is built.
func TestShardBuildRequiresWAL(t *testing.T) {
	err := run("", "127.0.0.1:0", true, true, time.Second, 1, "0/2", "", 0, 0)
	if err == nil || !strings.Contains(err.Error(), "requires -wal") {
		t.Fatalf("-shard 0/2 -build without -wal = %v, want a requires -wal error", err)
	}
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
