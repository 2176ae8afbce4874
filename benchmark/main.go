// Command benchmark is the one performance ledger for the whole stack:
// four workloads, end-to-end metrics with regression bounds, per-layer
// metrics from a traced run, and output checks against a naive oracle.
// README.md in this directory is the manual; BENCHMARK.json at the
// repository root is the contract the driver reads.
//
// Everything under test is built in-process through the public
// constructors the commands use, and driven over loopback listeners; no
// file outside this directory knows the benchmark exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// outDir is where a run keeps everything it writes: model files, feedback
// logs, span dumps. It is relative to the working directory, which is the
// root of the checkout.
const outDir = ".bench_build"

var bgCtx = context.Background()

// runConfig is one run's parameters.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	size     size
	tmp      string // scratch for this run, removed afterwards
	out      string // kept artefacts (span dumps)
}

var workloadNames = []string{"shard_exact_uniform", "shard_ivf_zipf", "routed_rw", "train_ml1m"}

// gatedWorkloads are the ones BENCHMARK.json lists, whose end-to-end
// metrics the driver holds to their bounds. train_ml1m runs, is checked and
// is recorded like the others, but is not among them: on the reference box
// the trainer's speed sits at one of several levels 15–30 % apart for
// minutes at a time (ten processes in a row at 680 000 steps/s on either
// core, the next ten at 900 000, with the serving workloads and every probe
// tried beside them unmoved), so no statistic inside a run can hold its
// timing to a bound there. Compare it in alternating pairs (-repeat on both
// commits), not against a stored median.
var gatedWorkloads = workloadNames[:3]

// runWorkload executes one workload and returns what it measured.
func runWorkload(cfg runConfig) (*report, error) {
	rep := newReport()
	if cfg.workload == "train_ml1m" {
		return rep, runTrain(cfg, rep)
	}
	for _, def := range servingDefs {
		if def.name == cfg.workload {
			return rep, runServing(def, cfg, rep)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Uint64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 26, "how long the timed windows measure, in total")
		trace    = flag.Int("trace", 0, "0: end-to-end run, tracing off; 1: traced run that yields the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny catalog, for the package's own test")
		repeat   = flag.Int("repeat", 0, "run the workload N times (seeds seed..seed+N-1) and print medians, quartiles and spread against each bound")
		history  = flag.Bool("append-history", false, "append one line per run to benchmark/history.jsonl")
	)
	flag.Parse()
	if *workload == "" || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *repeat > 0 || *workload == "all" {
		os.Exit(runMany(*workload, *seed, *seconds, *trace, *smoke, *repeat, *history))
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0, size: fullSize, out: outDir}
	if *smoke {
		cfg.size = smokeSize
	}
	res, rep, err := runOnce(cfg)
	if rep != nil {
		for _, line := range rep.lines {
			fmt.Println(line)
		}
		for _, v := range rep.violated {
			fmt.Println("VIOLATION:", v)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printMetrics(res)
	if *history {
		if err := appendHistory(cfg, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runOnce runs one workload in a scratch directory of its own.
func runOnce(cfg runConfig) (*result, *report, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp
	rep, err := runWorkload(cfg)
	if err != nil {
		return nil, rep, err
	}
	defs, strict := endToEnd, true
	if cfg.traced {
		defs, strict = perLayer, false
	}
	values, err := rep.selectMetrics(defs, strict)
	if err != nil {
		return nil, rep, err
	}
	if rep.attempted < 1 {
		return nil, rep, fmt.Errorf("the run attempted no operation")
	}
	return &result{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: values}, rep, nil
}

func printMetrics(res *result) {
	defs := endToEnd
	if _, ok := res.Metrics[endToEnd[0].name]; !ok {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-32s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
}

// historyLine is one row of the trajectory: the ledger is a file keyed by
// commit, not a snapshot that the next run overwrites.
type historyLine struct {
	Time     string             `json:"time"`
	Commit   string             `json:"commit"`
	Dirty    bool               `json:"dirty"`
	Cores    int                `json:"cores"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	Correct  bool               `json:"correct"`
	Failed   int                `json:"failed"`
	Metrics  map[string]float64 `json:"metrics"`
}

func appendHistory(cfg runConfig, res *result) error {
	line := historyLine{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: "unknown", Cores: runtime.NumCPU(),
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Correct: res.Correct, Failed: res.Failed, Metrics: make(map[string]float64, len(res.Metrics)),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		line.Commit = strings.TrimSpace(string(out))
		status, _ := exec.Command("git", "status", "--porcelain").Output() // no git, no dirty flag
		line.Dirty = len(status) > 0
	}
	for name, v := range res.Metrics {
		line.Metrics[name] = v.Value
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join("benchmark", "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
