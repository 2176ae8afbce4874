package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
)

// metricDef names one reported number. bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is what a user of the whole system sees. Every workload
// reports every one of them, so each has one meaning per workload (see
// README.md, "End-to-end metrics"). BENCHMARK.json repeats this table;
// TestManifestMatches keeps the two equal.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"quality", "share", "higher", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is one entry per layer measurement, named <module>.<what>,
// followed by the per-class end-to-end numbers that only some workloads
// have (kept by name, ungated). A workload that does not run a layer
// reports 0 for it.
var perLayer = []metricDef{
	{"datagen.generate_s", "s", "lower", 0},
	{"store.save_v2_s", "s", "lower", 0},
	{"store.load_v2_s", "s", "lower", 0},
	{"store.save_v3_s", "s", "lower", 0},
	{"store.load_mapped_s", "s", "lower", 0},
	{"store.file_mb", "MB", "lower", 0},
	{"mf.foldin_us", "us", "lower", 0},
	{"mf.param_mb", "MB", "lower", 0},
	{"score.scan_f64_us", "us", "lower", 0},
	{"score.scan_f32_us", "us", "lower", 0},
	{"score.batch_f64_us_per_user", "us", "lower", 0},
	{"score.batch_f32_us_per_user", "us", "lower", 0},
	{"score.scan_gb_per_s", "GB/s", "higher", 0},
	{"rank.topk_us", "us", "lower", 0},
	{"retrieval.build_s", "s", "lower", 0},
	{"retrieval.probe_us", "us", "lower", 0},
	{"retrieval.search_us", "us", "lower", 0},
	{"retrieval.candidates_share", "share", "lower", 0},
	{"serve.cache_hit_share", "share", "higher", 0},
	{"serve.handler_us", "us", "lower", 0},
	{"serve.http_overhead_us", "us", "lower", 0},
	{"serve.glue_us", "us", "lower", 0},
	{"serve.coldstart_p50_ms", "ms", "lower", 0},
	{"serve.batch_users_per_s", "1/s", "higher", 0},
	{"serve.shed_share", "share", "lower", 0},
	{"serve.trace_overhead_pct", "%", "lower", 0},
	{"serve.stage.shed_us", "us", "lower", 0},
	{"serve.stage.cache_us", "us", "lower", 0},
	{"serve.stage.foldin_us", "us", "lower", 0},
	{"serve.stage.score_us", "us", "lower", 0},
	{"serve.stage.topk_us", "us", "lower", 0},
	{"serve.stage.merge_us", "us", "lower", 0},
	{"serve.stage.probe_us", "us", "lower", 0},
	{"serve.stage.encode_us", "us", "lower", 0},
	{"reconcile.explained_share", "share", "higher", 0},
	{"cluster.ring_lookup_ns", "ns", "lower", 0},
	{"cluster.hop_overhead_us", "us", "lower", 0},
	{"cluster.hedge_share", "share", "lower", 0},
	{"cluster.retry_share", "share", "lower", 0},
	{"cluster.degraded_share", "share", "lower", 0},
	{"feedback.wal_append_us", "us", "lower", 0},
	{"feedback.fsync_us", "us", "lower", 0},
	{"feedback.ingest_us", "us", "lower", 0},
	{"feedback.replay_events_per_s", "1/s", "higher", 0},
	{"feedback.overlay_users", "count", "lower", 0},
	{"feedback.promote_s", "s", "lower", 0},
	{"feedback.promote_read_p95_ms", "ms", "lower", 0},
	{"core.uniform_steps_per_s", "1/s", "higher", 0},
	{"core.par_speedup", "x", "higher", 0},
	{"sampling.dss_sample_ns", "ns", "lower", 0},
	{"sampling.uniform_sample_ns", "ns", "lower", 0},
	{"sampling.refresh_ms", "ms", "lower", 0},
	{"eval.score_share", "share", "lower", 0},
	{"eval.rank_share", "share", "lower", 0},
	{"runtime.alloc_kb_per_req", "KB", "lower", 0},
	{"runtime.gc_cpu_share", "share", "lower", 0},
	{"runtime.gc_pause_p99_ms", "ms", "lower", 0},
	{"loadgen.lateness_p99_ms", "ms", "lower", 0},
	{"loadgen.sent", "count", "higher", 0},
	{"loadgen.ok", "count", "higher", 0},
	{"loadgen.failed", "count", "lower", 0},
	{"rec_p50_ms", "ms", "lower", 0},
	{"rec_p95_ms", "ms", "lower", 0},
	{"rec_p99_ms", "ms", "lower", 0},
	{"rec_rps", "1/s", "higher", 0},
	{"fb_ack_p50_ms", "ms", "lower", 0},
	{"fb_ack_p95_ms", "ms", "lower", 0},
	{"recall_at_10", "share", "higher", 0},
	{"failed_share", "share", "lower", 0},
	{"train_steps_per_s", "1/s", "higher", 0},
	{"train_par_steps_per_s", "1/s", "higher", 0},
	{"eval_users_per_s", "1/s", "higher", 0},
	{"test_map", "share", "higher", 0},
	{"test_mrr", "share", "higher", 0},
}

// report accumulates what one run measured and checked.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	violated  []string // oracle checks that did not hold
	lines     []string // human-readable lines, printed before the result
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// phase folds a timed window's operations into the run's counts.
func (r *report) phase(p *phaseResult) {
	r.attempted += p.sent
	r.failed += p.failed
	line := fmt.Sprintf("phase %-22s sent %7d ok %7d failed %4d", p.name, p.sent, p.ok(), p.failed)
	if len(p.lateness) > 0 {
		line += fmt.Sprintf("  lateness p99 %.3f ms", p.latenessP99())
	}
	r.lines = append(r.lines, line)
}

// check records one oracle check; a check that does not hold is a failed
// operation and makes the run incorrect.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.violated) < 20 {
		r.violated = append(r.violated, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return len(r.violated) == 0 }

// selectMetrics returns the values of defs. A missing end-to-end value
// is a bug in the workload; a missing per-layer value means the workload
// does not run that layer and reads 0.
func (r *report) selectMetrics(defs []metricDef, strict bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if strict && (!ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0)) {
			return nil, fmt.Errorf("end-to-end metric %s has no usable value (%v)", d.name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// numProcs is the worker count for compute the system parallelises
// itself (evaluation, the oracle).
func numProcs() int { return runtime.GOMAXPROCS(0) }

// numClients is how many connections a load phase drives: the core count
// of the reference box, frozen so closed-loop throughput means the same
// thing on a larger machine.
const numClients = 2
