// Command benchmark is the repository's end-to-end benchmark: one load
// generator process that drives the giant facade and real giantd /
// giantrouter child processes through four workloads and prints, as the
// last line of its standard output, one JSON object with the run's
// correctness verdict and its metrics. See README.md for the workloads,
// the metrics and the rules that keep them steady.
//
//	bash benchmark/run.sh --workload single_cached --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload all                 # every workload, one table
//	bash benchmark/run.sh --selfcheck                    # the suite six times; the two sides' medians must agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
)

// The main goroutine stays on the main OS thread: child processes are
// started from it with Pdeathsig, which the kernel ties to the spawning
// thread, and the main thread is the one thread Go never retires.
func init() { runtime.LockOSThread() }

// runConfig is one invocation's inputs.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	binDir   string // giantd and giantrouter binaries
	workDir  string // scratch: artifacts, WALs, child logs, trace files
}

// report is what one workload run produces.
type report struct {
	tally    tally
	problems []string           // oracle and invariant violations; any makes the run incorrect
	metrics  map[string]float64 // end-to-end on an untraced run, per-layer on a traced run
	info     map[string]float64 // ungated context printed for people: sample counts, p99, max
}

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.tally.failed() == 0 }

// rounds sizes a workload's timed phase: base rounds at runSeconds, more
// for a longer --seconds, never fewer than five.
func rounds(seconds, base int) int {
	n := (base*seconds + runSeconds/2) / runSeconds
	if n < 5 {
		n = 5
	}
	return n
}

var workloadFuncs = map[string]func(runConfig, *fleet) (*report, error){
	"offline_replay": runOfflineReplay,
	"single_cached":  runSingleCached,
	"sharded_cold":   runShardedCold,
	"routed_ingest":  runRoutedIngest,
}

// runWorkload runs one workload in a scratch directory of its own and
// tears everything down again, whatever happens.
func runWorkload(cfg runConfig) (rep *report, err error) {
	fn, ok := workloadFuncs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	fl := &fleet{binDir: cfg.binDir, tmpDir: tmp}
	// A signal must not orphan the daemons: stop them, then die.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sigc; ok {
			fl.stop()
			os.RemoveAll(tmp)
			os.Exit(130)
		}
	}()
	defer func() {
		signal.Stop(sigc)
		close(sigc)
		fl.stop()
		os.RemoveAll(tmp)
	}()
	rep, err = fn(cfg, fl)
	if err == nil {
		err = fl.err
	}
	return rep, err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultOf renders a report against the metric list its mode promises;
// a name the run did not produce is a bug and fails the run loudly.
func resultOf(rep *report, specs []metricSpec) (resultLine, error) {
	out := resultLine{
		Correct:   rep.correct(),
		Attempted: rep.tally.attempted,
		Failed:    rep.tally.failed(),
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := rep.metrics[s.name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", s.name)
		}
		out.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if len(rep.metrics) != len(specs) {
		return out, fmt.Errorf("run measured %d metrics, its list has %d", len(rep.metrics), len(specs))
	}
	return out, nil
}

// printReport writes the human-readable table to stderr.
func printReport(cfg runConfig, rep *report, specs []metricSpec) {
	w := os.Stderr
	fmt.Fprintf(w, "\n== %s  seed=%d seconds=%d trace=%v  nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	for _, s := range specs {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", s.name, rep.metrics[s.name], s.unit)
	}
	keys := make([]string, 0, len(rep.info))
	for k := range rep.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-40s %14.4f (ungated)\n", k, rep.info[k])
	}
	t := rep.tally
	fmt.Fprintf(w, "  attempted=%d failed=%d (transport=%d non2xx=%d oracle=%d) fail_ratio=%g\n",
		t.attempted, t.failed(), t.transport, t.non2xx, t.mismatch, float64(t.failed())/float64(max(t.attempted, 1)))
	for _, p := range rep.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// commit is the VCS revision stamped into the binary, when there is one
// (the driver's checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func specsFor(trace bool) []metricSpec {
	if trace {
		return perLayerSpecs
	}
	return endToEndSpecs
}

// runAndPrint runs one workload, prints its table and its result line.
func runAndPrint(cfg runConfig) (*report, error) {
	rep, err := runWorkload(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	specs := specsFor(cfg.trace)
	line, err := resultOf(rep, specs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	printReport(cfg, rep, specs)
	enc, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(enc))
	return rep, nil
}

func main() {
	var cfg runConfig
	var trace int
	var selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "all", "offline_replay, single_cached, sharded_cold, routed_ingest, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "op-list seed: the same seed gives the same requests in the same order")
	flag.IntVar(&cfg.seconds, "seconds", runSeconds, "length of the timed phase the round count is sized for")
	flag.IntVar(&trace, "trace", 0, "1 = traced pass over a 1-in-10 sample: per-layer metrics and trace-<workload>.jsonl instead of end-to-end metrics")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the suite three times for each of two sides, taking turns, and fail if a gated metric's two medians differ by more than its bound")
	flag.StringVar(&cfg.binDir, "bin", "", "directory holding giantd and giantrouter (default: next to this binary)")
	flag.StringVar(&cfg.workDir, "work", ".giantbench", "scratch directory for artifacts, WALs, logs and trace files")
	flag.Parse()
	cfg.trace = trace != 0
	if cfg.seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	if cfg.binDir == "" {
		exe, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		cfg.binDir = filepath.Dir(exe)
	}
	for _, b := range []string{"giantd", "giantrouter"} {
		if _, err := os.Stat(filepath.Join(cfg.binDir, b)); err != nil {
			fatal(fmt.Errorf("missing daemon binary (build with benchmark/run.sh): %w", err))
		}
	}
	abs, err := filepath.Abs(cfg.workDir)
	if err != nil {
		fatal(err)
	}
	cfg.workDir = abs

	switch {
	case selfcheck:
		if err := runSelfcheck(cfg); err != nil {
			fatal(err)
		}
	case cfg.workload == "all":
		ok := true
		for _, w := range workloadSpecs {
			c := cfg
			c.workload = w.name
			rep, err := runAndPrint(c)
			if err != nil {
				fatal(err)
			}
			ok = ok && rep.correct()
		}
		if !ok {
			os.Exit(1)
		}
	default:
		// A run that measured but found wrong answers still exits 0: the
		// result line says correct=false and counts the failures.
		if _, err := runAndPrint(cfg); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
