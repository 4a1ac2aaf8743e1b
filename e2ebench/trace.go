package main

import (
	"bufio"
	"encoding/json"
	"hash/fnv"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smatch/internal/profile"
	"smatch/internal/server"
	"smatch/internal/service"
	"smatch/internal/wire"
)

// tracer records spans from the benchmark's own wrappers around the
// program's public entry points. Spans stay in memory and are written
// out when the run ends. A nil tracer, or one that is not on, records
// nothing, so the same session code serves traced and untraced runs.
type tracer struct {
	epoch time.Time
	// every samples roots: one operation in every is traced.
	every uint64
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
	// links correlate a span opened on one side of a boundary (a client
	// call, a router handler) with the span the other side opens for the
	// same request, so a handler span gets its caller as parent.
	links map[linkKey][]linkVal
}

// span is one finished interval at a layer boundary. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef is an open span.
type spanRef struct {
	name            string
	id, parent, req uint64
	start           int64
}

// level says which side of a boundary registered a link: the client,
// the router forwarding to a partition, or a service handler calling
// its journal.
type level uint8

const (
	fromClient level = iota + 1
	fromRouter
	fromService
)

type opKind uint8

const (
	opQuery opKind = iota + 1
	opUpload
	opOPRF
)

type linkKey struct {
	lvl level
	op  opKind
	key uint64
}

type linkVal struct{ span, req uint64 }

func newTracer(every uint64) *tracer {
	return &tracer{epoch: time.Now(), every: every, links: make(map[linkKey][]linkVal)}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// root opens the span of operation req if it is sampled; otherwise, or
// with tracing off, it returns a zero ref that end ignores.
func (t *tracer) root(name string, req uint64) spanRef {
	if !t.active() || req%t.every != 0 {
		return spanRef{}
	}
	return spanRef{name: name, id: t.ids.Add(1), req: req, start: t.now()}
}

// rootAt is root for an operation that started at an instant already
// passed: a serve or routed request starts at its due time.
func (t *tracer) rootAt(name string, at time.Time, req uint64) spanRef {
	s := t.root(name, req)
	if s.id != 0 {
		s.start = int64(at.Sub(t.epoch))
	}
	return s
}

// begin opens a child span; under an untraced parent it returns a zero
// ref.
func (t *tracer) begin(name string, parent, req uint64) spanRef {
	if !t.active() || parent == 0 {
		return spanRef{}
	}
	return spanRef{name: name, id: t.ids.Add(1), parent: parent, req: req, start: t.now()}
}

func (t *tracer) end(s spanRef) {
	if s.id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: s.name, ID: s.id, Parent: s.parent, Req: s.req, Start: s.start, End: end})
	t.mu.Unlock()
}

func (t *tracer) link(k linkKey, s spanRef) {
	if s.id == 0 {
		return
	}
	t.mu.Lock()
	t.links[k] = append(t.links[k], linkVal{span: s.id, req: s.req})
	t.mu.Unlock()
}

func (t *tracer) unlink(k linkKey, s spanRef) {
	if s.id == 0 {
		return
	}
	t.mu.Lock()
	vals := t.links[k]
	for i, v := range vals {
		if v.span == s.id {
			vals = append(vals[:i], vals[i+1:]...)
			break
		}
	}
	if len(vals) == 0 {
		delete(t.links, k)
	} else {
		t.links[k] = vals
	}
	t.mu.Unlock()
}

// lookup returns the oldest open span linked under k, or 0 when the
// request is not traced. Two identical requests in flight at once (same
// operation, same user) may swap parents, and an untraced one may take a
// traced one's; their spans cover near-identical intervals.
func (t *tracer) lookup(k linkKey) (parent, req uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if vals := t.links[k]; len(vals) > 0 {
		return vals[0].span, vals[0].req
	}
	return 0, 0
}

// wrapHandler times a service handler as span name. The handler's
// parent is the span linked at level from for the request's key; when
// to is set, the handler links itself there for the layer it calls.
func (t *tracer) wrapHandler(name string, from, to level, op opKind, h service.Handler) service.Handler {
	return func(payload, resp []byte) (wire.MsgType, []byte, error) {
		if !t.active() {
			return h(payload, resp)
		}
		key := payloadKey(op, payload)
		parent, req := t.lookup(linkKey{from, op, key})
		if parent == 0 {
			return h(payload, resp)
		}
		s := t.begin(name, parent, req)
		if to != 0 {
			t.link(linkKey{to, op, key}, s)
			defer t.unlink(linkKey{to, op, key}, s)
		}
		mt, out, err := h(payload, resp)
		t.end(s)
		return mt, out, err
	}
}

// payloadKey extracts the correlation key from a request payload: the
// user ID for queries and uploads, a hash of the blinded element for an
// OPRF round.
func payloadKey(op opKind, payload []byte) uint64 {
	switch op {
	case opQuery:
		if req, err := wire.DecodeQueryReq(payload); err == nil {
			return uint64(req.ID)
		}
	case opUpload:
		if req, err := wire.DecodeUploadReq(payload); err == nil {
			return uint64(req.ID)
		}
	case opOPRF:
		if req, err := wire.DecodeOPRFReq(payload); err == nil {
			return oprfKey(req.X.Bytes())
		}
	}
	return 0
}

func oprfKey(x []byte) uint64 {
	h := fnv.New64a()
	h.Write(x)
	return h.Sum64()
}

// tracedJournal times the durability hook a node's upload handler runs.
type tracedJournal struct {
	t *tracer
	j *server.Journal
}

func (tj tracedJournal) Begin() func() { return tj.j.Begin() }

func (tj tracedJournal) AppendUpload(req *wire.UploadReq) error {
	if !tj.t.active() {
		return tj.j.AppendUpload(req)
	}
	parent, r := tj.t.lookup(linkKey{fromService, opUpload, uint64(req.ID)})
	s := tj.t.begin("journal.append", parent, r)
	err := tj.j.AppendUpload(req)
	tj.t.end(s)
	return err
}

func (tj tracedJournal) AppendUploadBatch(reqs []*wire.UploadReq) error {
	return tj.j.AppendUploadBatch(reqs)
}

func (tj tracedJournal) AppendRemove(id profile.ID) error { return tj.j.AppendRemove(id) }

// writeCounter counts the writes and bytes a set of connections sends:
// each Write on the raw conn is one TLS record flush reaching the kernel.
type writeCounter struct{ writes, bytes atomic.Uint64 }

func (c *writeCounter) dial(network, addr string) (net.Conn, error) {
	nc, err := net.DialTimeout(network, addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: nc, c: c}, nil
}

type countingConn struct {
	net.Conn
	c *writeCounter
}

func (cc countingConn) Write(b []byte) (int, error) {
	cc.c.writes.Add(1)
	cc.c.bytes.Add(uint64(len(b)))
	return cc.Conn.Write(b)
}

// layerStat aggregates one span name.
type layerStat struct {
	n           int
	total, self time.Duration
}

func (s layerStat) meanMs() float64     { return s.mean(s.total) }
func (s layerStat) meanSelfMs() float64 { return s.mean(s.self) }

func (s layerStat) mean(d time.Duration) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(d) / float64(s.n) / 1e6
}

// Root span names: one join session, one serve or routed request.
const (
	rootSession = "session"
	rootRequest = "request"
)

// analysis is the trace reduced to per-layer totals.
type analysis struct {
	layers map[string]layerStat
	// uncovered and rootTotal sum, over root spans, the time no child
	// span covers and the root spans' own duration.
	uncovered, rootTotal time.Duration
}

// analyze computes every span's self time: its duration minus the part
// of its interval that its children cover.
func (t *tracer) analyze() analysis {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	a := analysis{layers: make(map[string]layerStat)}
	for _, s := range spans {
		dur := time.Duration(s.End - s.Start)
		covered := coverage(s, spans, children[s.ID])
		st := a.layers[s.Name]
		st.n++
		st.total += dur
		st.self += dur - covered
		a.layers[s.Name] = st
		if s.Name == rootSession || s.Name == rootRequest {
			a.uncovered += dur - covered
			a.rootTotal += dur
		}
	}
	return a
}

// coverage returns how much of s's interval the union of its children
// covers.
func coverage(s span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
