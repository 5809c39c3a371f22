// Package experiments contains one driver per table and figure of the
// paper's evaluation section (§5), plus the throughput and ablation studies
// DESIGN.md indexes. Drivers share an Env so expensive artifacts (the built
// system, the trained models, the datasets) are constructed once.
package experiments

import (
	"sync"

	giant "giant"
	"giant/internal/synth"
)

// Scale selects experiment sizes.
type Scale int

// Scales: Tiny for unit tests, Default for the benchmark harness.
const (
	ScaleTiny Scale = iota
	ScaleDefault
)

// Env bundles the shared experimental artifacts.
type Env struct {
	Scale Scale
	Sys   *giant.System
	World *synth.World

	// Concept Mining Dataset and Event Mining Dataset with 80/10/10 splits.
	CMDTrain, CMDDev, CMDTest []synth.MiningExample
	EMDTrain, EMDDev, EMDTest []synth.MiningExample
}

var (
	envCache map[Scale]*Env
	envMu    sync.Mutex
)

// GetEnv returns the (cached) environment for a scale.
func GetEnv(s Scale) (*Env, error) {
	envMu.Lock()
	defer envMu.Unlock()
	if envCache == nil {
		envCache = map[Scale]*Env{}
	}
	if e, ok := envCache[s]; ok {
		return e, nil
	}
	e, err := buildEnv(s)
	if err != nil {
		return nil, err
	}
	envCache[s] = e
	return e, nil
}

func buildEnv(s Scale) (*Env, error) {
	var cfg giant.Config
	var cmdN, emdN int
	switch s {
	case ScaleTiny:
		cfg = giant.TinyConfig()
		cmdN, emdN = 60, 60
	default:
		cfg = giant.DefaultConfig()
		cmdN, emdN = 300, 300
	}
	sys, err := giant.Build(cfg)
	if err != nil {
		return nil, err
	}
	env := &Env{Scale: s, Sys: sys, World: sys.World}
	cmd := sys.World.ConceptExamples(cmdN, 101)
	emd := sys.World.EventExamples(emdN, 102)
	env.CMDTrain, env.CMDDev, env.CMDTest = synth.Split(cmd)
	env.EMDTrain, env.EMDDev, env.EMDTest = synth.Split(emd)
	return env, nil
}
