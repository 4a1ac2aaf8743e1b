package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smatch/internal/client"
)

// subWindow is the length of the slices a measurement window is cut
// into for rates: ops_per_s and goodput_ops_per_s are the median over
// the slices, so a burst of host CPU steal moves one slice rather than
// the whole value.
const subWindow = 2 * time.Second

// maxMismatches bounds how many mismatch descriptions a window keeps.
const maxMismatches = 10

// record aggregates one window's operations as they complete, in memory
// that does not grow with the number of operations.
type record struct {
	sliceLen time.Duration
	limit    time.Duration
	join     bool
	// ok and good count, per slice of the window by start time, the
	// operations that succeeded and those that did so within limit.
	ok, good []atomic.Int64
	// op, query and upload are the window's latency distributions.
	op, query, upload hist
	// lag is the load generator's lag: how late the open loop sent each
	// request, or a join device's gap between sessions.
	lag hist

	attempted, failed atomic.Int64
	tp, truth         atomic.Int64
	queries, results  atomic.Int64
	mu                sync.Mutex
	mismatches        []string
}

func (l *loader) newRecord(seconds float64) *record {
	k := max(1, int(seconds/subWindow.Seconds()))
	r := &record{
		sliceLen: time.Duration(seconds * float64(time.Second) / float64(k)),
		limit:    requestLimit,
		join:     l.cfg.workload == "join",
		ok:       make([]atomic.Int64, k),
		good:     make([]atomic.Int64, k),
	}
	if r.join {
		r.limit = sessionLimit
	}
	return r
}

func (r *record) add(o outcome) {
	r.attempted.Add(1)
	if o.mismatch != "" {
		r.mu.Lock()
		if len(r.mismatches) < maxMismatches {
			r.mismatches = append(r.mismatches, o.mismatch)
		}
		r.mu.Unlock()
	}
	if o.query || r.join {
		r.queries.Add(1)
		r.results.Add(int64(o.results))
	}
	if !o.ok {
		r.failed.Add(1)
		return
	}
	if o.truth > 0 {
		r.tp.Add(int64(o.tp))
		r.truth.Add(int64(o.truth))
	}
	i := min(int(o.at/r.sliceLen), len(r.ok)-1)
	r.ok[i].Add(1)
	if o.lat <= r.limit {
		r.good[i].Add(1)
	}
	r.op.add(o.lat)
	switch {
	case r.join:
		r.query.add(o.q)
		r.upload.add(o.up)
	case o.query:
		r.query.add(o.lat)
	default:
		r.upload.add(o.lat)
	}
}

// rate is the median over the slices of counts per second.
func (r *record) rate(counts []atomic.Int64) float64 {
	vals := make([]float64, len(counts))
	for i := range counts {
		vals[i] = float64(counts[i].Load()) / r.sliceLen.Seconds()
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}

func (r *record) succeeded() int64 {
	var n int64
	for i := range r.ok {
		n += r.ok[i].Load()
	}
	return n
}

// tally copies the correctness side of a window into the report.
func (r *record) tally(rep *report) {
	rep.Attempted += int(r.attempted.Load())
	rep.Failed += int(r.failed.Load())
	rep.mismatches = append(rep.mismatches, r.mismatches...)
	rep.Correct = len(rep.mismatches) == 0
}

// window runs the workload for seconds and returns its record and the
// counters at the window's start and end. The seeded order or schedule
// is drawn, and the peak RSS reset, before the first snapshot.
func (l *loader) window(seconds float64, stream uint64) (rec *record, before, after snapshot, err error) {
	rec = l.newRecord(seconds)
	var run func() error
	if l.cfg.workload == "join" {
		order := rand.New(rand.NewPCG(l.cfg.seed, stream)).Perm(len(l.dep.ds.Profiles))
		run = func() error {
			return l.closedLoop(seconds, rec, func(conn *client.Conn, k uint64) outcome {
				return l.session(conn, order[int(k-1)%len(order)], k)
			})
		}
	} else {
		sched := l.schedule(seconds, stream)
		run = func() error { return l.openLoop(sched, rec) }
	}
	if err := resetPeakRSS(); err != nil {
		return nil, before, after, fmt.Errorf("reset peak RSS: %w", err)
	}
	before = takeSnapshot(l.dep)
	err = run()
	after = takeSnapshot(l.dep)
	if err != nil {
		return nil, before, after, err
	}
	if rec.attempted.Load() == 0 {
		return nil, before, after, errors.New("no operation completed in the window")
	}
	return rec, before, after, nil
}

// untraced measures every end-to-end metric from one window.
func (l *loader) untraced(setups []time.Duration) (*report, error) {
	rec, _, _, err := l.window(l.cfg.seconds, 1)
	if err != nil {
		return nil, err
	}
	mem, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	values := map[string]float64{
		"setup_s":           median(setups).Seconds(),
		"ops_per_s":         rec.rate(rec.ok),
		"goodput_ops_per_s": rec.rate(rec.good),
		"mem_peak_mb":       mem,
		"match_tpr":         ratio(float64(rec.tp.Load()), float64(rec.truth.Load())),
		"success_ratio":     ratio(float64(rec.succeeded()), float64(rec.attempted.Load())),
	}
	rep := newReport(endToEnd, values)
	rec.tally(rep)
	rep.latencies = []latency{{"op", &rec.op}, {"query", &rec.query}, {"upload", &rec.upload}}
	return rep, nil
}

// traced runs the window in two halves, the first with tracing off and
// the second with it on. The runtime and WAL counters come from the
// first, free of the tracer's own work; span and write-count
// metrics from the second. The halves' median op latencies give the
// tracing overhead.
func (l *loader) traced() (*report, error) {
	l.clientWrites = &writeCounter{}
	half := l.cfg.seconds / 2
	plain, before, after, err := l.window(half, 1)
	if err != nil {
		return nil, err
	}
	plainOps := float64(plain.attempted.Load())
	l.tr.on.Store(true)
	w0, b0 := l.clientWrites.writes.Load(), l.clientWrites.bytes.Load()
	var rw0 uint64
	if l.dep.routerWrites != nil {
		rw0 = l.dep.routerWrites.writes.Load()
	}
	rec, _, _, err := l.window(half, 2)
	l.tr.on.Store(false)
	if err != nil {
		return nil, err
	}

	ops := float64(rec.attempted.Load())
	a := l.tr.analyze()
	layer := func(name string) layerStat { return a.layers[name] }
	router := layer("router.query")
	router.n += layer("router.upload").n
	router.self += layer("router.upload").self
	var routerWrites float64
	if l.dep.routerWrites != nil {
		routerWrites = float64(l.dep.routerWrites.writes.Load() - rw0)
	}
	values := map[string]float64{
		"core.keygen_ms":          layer("core.keygen").meanSelfMs(),
		"oprf.round_ms":           layer("oprf.round").meanMs(),
		"oprf.eval_ms":            layer("oprf.eval").meanMs(),
		"core.initdata_us":        layer("core.initdata").meanMs() * 1e3,
		"core.enc_us":             layer("core.enc").meanMs() * 1e3,
		"core.auth_ms":            layer("core.auth").meanMs(),
		"core.vf_ms":              ratio(ms(layer("core.vf").total), float64(l.verified.Load())),
		"core.vf_per_join":        ratio(float64(l.verified.Load()), float64(layer(rootSession).n)),
		"client.query_rtt_ms":     layer("client.query").meanMs(),
		"client.upload_rtt_ms":    layer("client.upload").meanMs(),
		"transport.query_ms":      layer("client.query").meanSelfMs(),
		"client.writes_per_op":    float64(l.clientWrites.writes.Load()-w0) / ops,
		"client.bytes_per_op":     float64(l.clientWrites.bytes.Load()-b0) / ops,
		"service.query_ms":        layer("service.query").meanMs(),
		"service.upload_ms":       layer("service.upload").meanMs(),
		"journal.append_ms":       layer("journal.append").meanMs(),
		"wal.records_per_fsync":   ratio(float64(after.walRecords-before.walRecords), float64(after.walFsyncs-before.walFsyncs)),
		"match.results_per_query": ratio(float64(rec.results.Load()), float64(rec.queries.Load())),
		"match.bucket_mean":       l.dep.bucketMean(),
		"router.query_ms":         layer("router.query").meanMs(),
		"router.upload_ms":        layer("router.upload").meanMs(),
		"router.forward_ms":       router.meanSelfMs(),
		"router.writes_per_op":    routerWrites / ops,
		"process.cpu_ms_per_op":   ratio(ms(after.cpu-before.cpu), float64(plain.succeeded())),
		"runtime.allocs_per_op":   float64(after.mallocs-before.mallocs) / plainOps,
		"runtime.gc_cpu_fraction": ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU),
		"loadgen.lag_p99_ms":      rec.lag.quantile(0.99),
		"trace.unaccounted_pct":   100 * ratio(float64(a.uncovered), float64(a.rootTotal)),
		"trace.overhead_pct":      100 * (ratio(rec.op.quantile(0.5), plain.op.quantile(0.5)) - 1),
	}
	rep := newReport(perLayer, values)
	plain.tally(rep)
	rec.tally(rep)
	rep.layers = a.layers
	return rep, nil
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
