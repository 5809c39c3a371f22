package giant

import (
	"reflect"
	"testing"

	"giant/internal/core"
	"giant/internal/delta"
)

// TestGoldenReplayWarmMinerMatchesFresh runs the golden replay's batches
// through Ingest and, after every batch, re-mines the batch's affected seeds
// three ways over the system's click graph: on a miner that has never mined
// anything, on a long-lived shadow miner that has followed the whole replay
// (so it answers part of every batch from its memo and part by inference,
// exactly as the system's own miner just did inside Ingest), and on the
// system's miner itself (now all memo). All three must agree at every batch,
// at worker-pool sizes 1 and 4. TestGoldenIngestReplay pins the same thing
// from the outside: the hashes it compares were recorded before the memo
// existed.
func TestGoldenReplayWarmMinerMatchesFresh(t *testing.T) {
	cfg := TinyConfig()
	cfg.Update = delta.Policy{EventTTL: 4}
	full, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	batches := goldenBatches(t, full)
	for _, p := range []int{1, 4} {
		c := cfg
		c.Parallelism = p
		sys, err := BuildUpToDay(c, goldenReplaySplitDay)
		if err != nil {
			t.Fatalf("BuildUpToDay: %v", err)
		}
		newMiner := func() *core.Miner {
			m := core.NewMiner(sys.Miner.Phrase, sys.Miner.Keys, sys.Miner.Lex)
			m.Parallelism = p
			return m
		}
		shadow := newMiner()
		shadow.Mine(sys.Click)
		reused0, remined0 := shadow.MemoStats()
		for i, b := range batches {
			_, d, err := sys.Ingest(b)
			if err != nil {
				t.Fatalf("P=%d batch %d: %v", p, i, err)
			}
			want := newMiner().MineSeeds(sys.Click, d.Seeds)
			if got := shadow.MineSeeds(sys.Click, d.Seeds); !reflect.DeepEqual(got, want) {
				t.Fatalf("P=%d batch %d: the warm miner's MineSeeds over %d seeds diverges from a fresh miner's", p, i, len(d.Seeds))
			}
			if got := sys.Miner.MineSeeds(sys.Click, d.Seeds); !reflect.DeepEqual(got, want) {
				t.Fatalf("P=%d batch %d: the system miner's MineSeeds over %d seeds diverges from a fresh miner's", p, i, len(d.Seeds))
			}
		}
		reused, remined := shadow.MemoStats()
		if reused == reused0 || remined == remined0 {
			t.Fatalf("P=%d: the replay reused %d clusters and re-mined %d, so it did not test both sides of the memo", p, reused-reused0, remined-remined0)
		}
		t.Logf("P=%d: %d batches reused %d clusters and re-mined %d", p, len(batches), reused-reused0, remined-remined0)
	}
}
