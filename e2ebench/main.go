// Command e2ebench is the repository's end-to-end benchmark: a user's
// upload-to-verified-match path measured against in-process S-MATCH
// nodes over real TLS on loopback, with production parameters (2048-bit
// RSA-OPRF, the default 2048-bit verification group, a WAL with fsync
// and group commit).
//
//	go run . --workload join --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - join: closed loop, two devices; each session re-joins one
//     population member with a fresh device (Keygen with its OPRF round,
//     InitData, Enc, Auth, Upload, Query top-5, VerifyResults).
//   - serve: open loop, 2000 seeded Poisson arrivals per second over two
//     pipelined connections to one WAL node; 80% kNN queries and 20%
//     durable re-uploads of entries sealed in set-up.
//   - routed: serve's schedule sent through the fan-out router in front
//     of two WAL partition nodes.
//
// Every answer is checked against an in-process reference; a mismatch
// or a Vf rejection makes the run fail. With --trace 1 the run instead
// reports per-layer metrics from spans the benchmark records around the
// public entry points of each layer, and writes the spans to
// <workdir>/trace-<workload>.jsonl.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"smatch/internal/dataset"
	"smatch/internal/match"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	// users is the population size; setups is how many times set-up
	// runs (setup_s is their median). The self-test makes both smaller.
	users  int
	setups int
	// tamper, when set, rewrites every query answer before it is
	// checked; the self-test uses it to show the correctness gate fires.
	tamper func([]match.Result) []match.Result
}

// blobs is how many Auth blobs set-up seals per user: serve and routed
// re-upload alternating blobs.
func (c config) blobs() int {
	if c.workload == "join" {
		return 1
	}
	return 2
}

// Defaults fixed by the benchmark definition (BENCHMARK.json).
const (
	defaultUsers  = 300
	defaultSetups = 3
	// Goodput latency limits: a request on serve and routed, a whole
	// session on join.
	requestLimit = 50 * time.Millisecond
	sessionLimit = 500 * time.Millisecond
)

var workloads = []string{"join", "serve", "routed"}

// traceEvery is how many operations share one traced one: every join
// session is traced, and one serve or routed request in 16, which keeps
// a traced run's spans to tens of thousands.
func traceEvery(workload string) uint64 {
	if workload == "join" {
		return 1
	}
	return 16
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "join, serve or routed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: device secrets, join order and request schedule")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for WAL files and the trace")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.users, cfg.setups = defaultUsers, defaultSetups
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.Correct {
		for _, m := range rep.mismatches {
			fmt.Fprintln(os.Stderr, "e2ebench: mismatch:", m)
		}
		os.Exit(1)
	}
}

func (c config) validate() error {
	ok := false
	for _, w := range workloads {
		ok = ok || c.workload == w
	}
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q (want one of %v)", c.workload, workloads)
	case c.seconds <= 0:
		return fmt.Errorf("--seconds must be positive")
	}
	return nil
}

// metricDef declares one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
// An "op" is one join session on join, one request on serve and routed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"goodput_ops_per_s", "1/s"},
	{"mem_peak_mb", "MB"},
	{"match_tpr", "ratio"},
	{"success_ratio", "ratio"},
}

// perLayer are the metrics a traced run reports. A layer the workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"core.keygen_ms", "ms"},
	{"oprf.round_ms", "ms"},
	{"oprf.eval_ms", "ms"},
	{"core.initdata_us", "us"},
	{"core.enc_us", "us"},
	{"core.auth_ms", "ms"},
	{"core.vf_ms", "ms"},
	{"core.vf_per_join", "count"},
	{"client.query_rtt_ms", "ms"},
	{"client.upload_rtt_ms", "ms"},
	{"transport.query_ms", "ms"},
	{"client.writes_per_op", "count"},
	{"client.bytes_per_op", "B"},
	{"service.query_ms", "ms"},
	{"service.upload_ms", "ms"},
	{"journal.append_ms", "ms"},
	{"wal.records_per_fsync", "count"},
	{"match.results_per_query", "count"},
	{"match.bucket_mean", "count"},
	{"router.query_ms", "ms"},
	{"router.upload_ms", "ms"},
	{"router.forward_ms", "ms"},
	{"router.writes_per_op", "count"},
	{"process.cpu_ms_per_op", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.unaccounted_pct", "%"},
	{"trace.overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// latency is one family of latency samples.
type latency struct {
	name string
	h    *hist
}

// report is one run's result.
type report struct {
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	provenance map[string]any
	mismatches []string
	// latencies are the untraced run's latency distributions, printed
	// as diagnostics.
	latencies []latency
	// layers is the traced run's per-span-name breakdown.
	layers map[string]layerStat
}

func newReport(defs []metricDef, values map[string]float64) *report {
	r := &report{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// print writes the provenance, one line per metric, and the result as
// the last line.
func (r *report) print(f *os.File) {
	prov, _ := json.Marshal(r.provenance)
	fmt.Fprintf(f, "provenance %s\n", prov)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "metric %-26s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, l := range r.latencies {
		fmt.Fprintf(f, "latency %-6s %8d samples  p50 %.4g ms  p99 %.4g ms (ten or more beyond it: %v)\n",
			l.name, l.h.n(), l.h.quantile(0.5), l.h.quantile(0.99), tailOK(l.h.n(), 0.99))
	}
	spans := make([]string, 0, len(r.layers))
	for n := range r.layers {
		spans = append(spans, n)
	}
	sort.Strings(spans)
	for _, n := range spans {
		st := r.layers[n]
		fmt.Fprintf(f, "span %-16s n=%-7d mean %10.4f ms  self %10.4f ms\n", n, st.n, st.meanMs(), st.meanSelfMs())
	}
	out, _ := json.Marshal(r)
	fmt.Fprintf(f, "%s\n", out)
}

// run sets up the system cfg.setups times, keeps the last set-up, and
// measures the workload on it.
func run(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if cfg.trace {
		tr = newTracer(traceEvery(cfg.workload))
	}
	// The OPRF key is generated once, outside the timed set-ups: its
	// prime search takes a time drawn from crypto/rand, not from the code
	// under test.
	key, err := rsa.GenerateKey(rand.Reader, oprfBits)
	if err != nil {
		return nil, err
	}
	var dep *deployment
	setups := make([]time.Duration, cfg.setups)
	for i := range setups {
		if dep != nil {
			dep.close()
		}
		start := time.Now()
		dep, err = deploy(cfg, key, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(start)
	}
	defer dep.close()
	ref, err := newReference(dep)
	if err != nil {
		return nil, err
	}
	l := &loader{cfg: cfg, dep: dep, ref: ref, tr: tr, uploads: make([]atomic.Uint32, len(dep.entries))}
	var rep *report
	if cfg.trace {
		rep, err = l.traced()
	} else {
		rep, err = l.untraced(setups)
	}
	if err != nil {
		return nil, err
	}
	rep.provenance = provenance(cfg, dep)
	if tr != nil {
		if err := tr.write(filepath.Join(cfg.workdir, "trace-"+cfg.workload+".jsonl")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// provenance records what the run ran on and with.
func provenance(cfg config, dep *deployment) map[string]any {
	p := map[string]any{
		"workload":         cfg.workload,
		"seed":             cfg.seed,
		"seconds":          cfg.seconds,
		"trace":            cfg.trace,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"transport":        "TLS over loopback, pipelined (v2) connections",
		"wal":              "fsync on, group commit on",
		"oprf_bits":        oprfBits,
		"group_bits":       dep.sys.Verifier().Group().P.BitLen(),
		"dataset":          dep.ds.Name,
		"dataset_seed":     dataset.WeiboSeed,
		"population":       len(dep.ds.Profiles),
		"setups":           cfg.setups,
		"load_conns":       loadConns(),
		"store_nodes":      len(dep.nodes),
		"request_limit_ms": ms(requestLimit),
		"session_limit_ms": ms(sessionLimit),
	}
	if cfg.workload != "join" {
		p["offered_rate_per_s"] = rate
		p["query_share"] = queryShare
	}
	return p
}
