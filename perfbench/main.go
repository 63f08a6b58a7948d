// Command perfbench is the repository benchmark. One run drives one named
// workload against the real serving stack (in-process servers behind
// loopback listeners) or the offline paper pipeline, checks every answer,
// and prints its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload query-static --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it wraps
// the layers' public injection points with span recorders and prints the
// per-layer metrics instead. Every workload prints every metric of the
// kind asked for. README.md beside this file records why each
// workload exists and how every metric is defined.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// Deployment constants, identical on every commit the benchmark compares.
// Servers run as linkpredd and linkpredr ship by default.
const (
	conns         = 2 // client connections the load generator opens
	serverWorkers = 2 // linkpredd -workers
	engineWorkers = 1 // linkpredd -engine-workers
	reqTimeout    = 10 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// scale shrinks the inputs (1 = benchmark size); the smoke tests run
	// every workload at a tiny scale.
	scale float64
	// setups is the least number of set-ups whose median setup_s reports
	// (see timedSetups).
	setups int
	// info receives the human-readable report lines.
	info func(format string, args ...any)
}

// report is what a workload returns: its metrics, operation counts and
// the outcome of its output check.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	checkErrs []string
}

func (r *report) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// failf records a failed output check.
func (r *report) failf(format string, args ...any) {
	r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
}

// declared is a metric BENCHMARK.json names, with its unit.
type declared struct{ name, unit string }

// endToEnd are the metrics an untraced run of every workload reports.
// Each workload measures each of them; README.md says what the headline
// latency and the rate are on each.
var endToEnd = []declared{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"max_rate_rps", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"failed_ratio", "ratio"},
}

// perLayer are the metrics a traced run of every workload reports. A
// layer the workload does not load reads 0: no WAL on query-static, no
// HTTP on paper-sweep.
var perLayer = []declared{
	{"serve.pre_sweep_p50_ms", "ms"},
	{"serve.pre_sweep_p99_ms", "ms"},
	{"serve.post_sweep_p50_ms", "ms"},
	{"serve.client_gap_p50_ms", "ms"},
	{"serve.score_requests_per_sweep", "count"},
	{"serve.degraded_share", "ratio"},
	{"serve.ingest_handler_p50_ms", "ms"},
	{"serve.ingest_handler_p99_ms", "ms"},
	{"serve.ingest_nonsync_p99_ms", "ms"},
	{"serve.ingest_overlap_share", "ratio"},
	{"serve.warm_cpu_share", "ratio"},
	{"serve.warm_p50_ms", "ms"},
	{"serve.predict_repeat_share", "ratio"},
	{"predict.local_sweep_p50_ms", "ms"},
	{"predict.local_sweep_p99_ms", "ms"},
	{"predict.latent_sweep_p50_ms", "ms"},
	{"predict.score_sweep_p50_ms", "ms"},
	{"predict.sweeps_per_predict", "count"},
	{"predict.pairs_scored_per_sweep", "count"},
	{"snapcache.hit_ratio", "ratio"},
	{"snapcache.build_p50_ms", "ms"},
	{"graph.publish_batch_p50_ms", "ms"},
	{"graph.delta_rows_per_publish", "count"},
	{"wal.fsync_p50_ms", "ms"},
	{"wal.fsync_p99_ms", "ms"},
	{"wal.sync_share", "ratio"},
	{"wal.fsyncs_per_batch", "count"},
	{"wal.bytes_per_edge", "B"},
	{"wal.checkpoints", "count"},
	{"wal.checkpoint_p50_ms", "ms"},
	{"cluster.router_self_p50_ms", "ms"},
	{"cluster.router_self_p99_ms", "ms"},
	{"cluster.shard_p50_ms", "ms"},
	{"cluster.straggler_gap_p99_ms", "ms"},
	{"cluster.shard_calls_per_predict", "count"},
	{"cluster.partial_share", "ratio"},
	{"cluster.ingest_fanout_p50_ms", "ms"},
	{"predict.walk_s", "s"},
	{"predict.latent_s", "s"},
	{"predict.local_s", "s"},
	{"predict.path_s", "s"},
	{"graph.cut_build_s", "s"},
	{"experiments.fanout_efficiency", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unaccounted_share", "ratio"},
}

// complete gives a traced report every per-layer metric, 0 where the
// workload left a layer idle, and refuses a report missing a metric of
// its kind or holding one BENCHMARK.json does not name.
func complete(rep *report, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	names := map[string]bool{}
	for _, d := range want {
		names[d.name] = true
		m, ok := rep.metrics[d.name]
		if !ok && traced {
			rep.set(d.name, d.unit, 0)
			continue
		}
		if !ok || m.Unit != d.unit {
			return fmt.Errorf("metric %s: reported %v, declared in %s", d.name, m, d.unit)
		}
	}
	for n := range rep.metrics {
		if !names[n] {
			return fmt.Errorf("metric %s is not declared", n)
		}
	}
	return nil
}

var workloads = map[string]func(runConfig) (*report, error){
	"query-static": runQueryStatic,
	"ingest-live":  runIngestLive,
	"cluster-live": runClusterLive,
	"paper-sweep":  runPaperSweep,
}

func main() {
	name := flag.String("workload", "", "workload name: query-static, ingest-live, cluster-live or paper-sweep")
	seed := flag.Int64("seed", 1, "workload seed: inputs and schedules are a pure function of it")
	seconds := flag.Int("seconds", 25, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run; 0 prints end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := checkConfig(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		scale:   1,
		setups:  3,
		info: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	stamp(cfg, *name)
	rep, err := run(cfg)
	if err == nil {
		err = complete(rep, cfg.traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{
		Correct:   len(rep.checkErrs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	for i, e := range rep.checkErrs {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more check failures\n", len(rep.checkErrs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("metric %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Attempted < 1 {
		os.Exit(1)
	}
}

// checkConfig refuses a deployment that oversubscribes the machine: more
// client connections than CPUs, or a server whose worker pool times its
// per-request engine parallelism exceeds GOMAXPROCS.
func checkConfig() error {
	nproc, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	if conns > nproc {
		return fmt.Errorf("refusing to run: %d client connections exceed nproc %d", conns, nproc)
	}
	if serverWorkers*engineWorkers > procs {
		return fmt.Errorf("refusing to run: %d server workers x %d engine workers exceed GOMAXPROCS %d",
			serverWorkers, engineWorkers, procs)
	}
	return nil
}
