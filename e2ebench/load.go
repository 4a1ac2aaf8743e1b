package main

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smatch/internal/client"
	"smatch/internal/match"
	"smatch/internal/oprf"
	"smatch/internal/profile"
)

// outcome is one operation as the load generator saw it: one join
// session, or one serve or routed request.
type outcome struct {
	query bool
	// at is when the operation started (was due, for a serve or routed
	// request), relative to the window's start.
	at time.Duration
	// lat is the operation's latency; a serve or routed request is timed
	// from its due time.
	lat time.Duration
	// up and q are a join session's upload and query round trips.
	up, q     time.Duration
	ok        bool
	results   int
	tp, truth int
	mismatch  string
}

// loader drives one measurement window against a deployment.
type loader struct {
	cfg config
	dep *deployment
	ref *reference
	tr  *tracer
	// clientWrites counts the load connections' writes when tracing.
	clientWrites *writeCounter
	// uploads[i] counts user i's re-uploads, choosing the next blob.
	uploads []atomic.Uint32
	// verified counts the results traced core.vf spans verified.
	verified atomic.Int64
}

func (l *loader) dial() (*client.Conn, error) {
	opts := client.Options{Timeout: reqTimeout}
	if l.clientWrites != nil {
		opts.Dialer = l.clientWrites.dial
	}
	return client.Dial(l.dep.addr, opts)
}

func (l *loader) dialN(n int) ([]*client.Conn, func(), error) {
	conns := make([]*client.Conn, 0, n)
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	for i := 0; i < n; i++ {
		c, err := l.dial()
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		conns = append(conns, c)
	}
	return conns, closeAll, nil
}

// loadConns is how many connections (and join devices) the generator
// uses: two, or fewer on a smaller host.
func loadConns() int { return min(2, runtime.NumCPU()) }

func (l *loader) query(conn *client.Conn, id profile.ID, parent, req uint64) ([]match.Result, error) {
	s := l.tr.begin("client.query", parent, req)
	k := linkKey{fromClient, opQuery, uint64(id)}
	l.tr.link(k, s)
	res, err := conn.Query(id, topK)
	l.tr.unlink(k, s)
	l.tr.end(s)
	if err == nil && l.cfg.tamper != nil {
		res = l.cfg.tamper(res)
	}
	return res, err
}

func (l *loader) upload(conn *client.Conn, e match.Entry, parent, req uint64) error {
	s := l.tr.begin("client.upload", parent, req)
	k := linkKey{fromClient, opUpload, uint64(e.ID)}
	l.tr.link(k, s)
	err := conn.Upload(e)
	l.tr.unlink(k, s)
	l.tr.end(s)
	return err
}

// tracedEval is the OPRF evaluator a traced join session hands its
// client: it times the round trip as a child of the keygen span.
type tracedEval struct {
	conn        *client.Conn
	tr          *tracer
	parent, req uint64
}

func (e *tracedEval) Evaluate(x *big.Int) (*big.Int, error) {
	s := e.tr.begin("oprf.round", e.parent, e.req)
	k := linkKey{fromClient, opOPRF, oprfKey(x.Bytes())}
	e.tr.link(k, s)
	y, err := e.conn.Evaluate(x)
	e.tr.unlink(k, s)
	e.tr.end(s)
	return y, err
}

// closedLoop runs one device per load connection. Each device runs do
// with the next sequence number, one operation at a time, until the
// window closes, and adds what it saw to rec. rec's lag samples are each
// device's gap between one operation and the next.
func (l *loader) closedLoop(seconds float64, rec *record, do func(conn *client.Conn, k uint64) outcome) error {
	conns, closeAll, err := l.dialN(loadConns())
	if err != nil {
		return err
	}
	defer closeAll()
	var (
		next atomic.Uint64
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for _, conn := range conns {
		wg.Add(1)
		go func(conn *client.Conn) {
			defer wg.Done()
			last := time.Now()
			for time.Now().Before(deadline) {
				begin := time.Now()
				rec.lag.add(begin.Sub(last))
				o := do(conn, next.Add(1))
				o.at = begin.Sub(start)
				rec.add(o)
				last = time.Now()
			}
		}(conn)
	}
	wg.Wait()
	return nil
}

// session is one user's join: a fresh device runs Keygen (with its OPRF
// round over the connection), InitData, Enc and Auth, uploads, queries
// top-k and checks the answer with VerifyResults (Vf on every result).
func (l *loader) session(conn *client.Conn, i int, req uint64) (o outcome) {
	p := l.dep.ds.Profiles[i]
	tr := l.tr
	root := tr.root(rootSession, req)
	start := time.Now()
	defer func() {
		o.lat = time.Since(start)
		tr.end(root)
	}()

	s := tr.begin("core.client", root.id, req)
	var eval oprf.Evaluator = conn
	te := &tracedEval{conn: conn, tr: tr, req: req}
	if tr.active() {
		eval = te
	}
	dev, err := l.dep.sys.NewClient(eval, deviceSecret(l.cfg.seed, p.ID))
	tr.end(s)
	if err != nil {
		return o
	}

	s = tr.begin("core.keygen", root.id, req)
	te.parent = s.id
	key, err := dev.Keygen(p)
	tr.end(s)
	if err != nil {
		return o
	}
	s = tr.begin("core.initdata", root.id, req)
	mapped, err := dev.InitData(p)
	tr.end(s)
	if err != nil {
		return o
	}
	s = tr.begin("core.enc", root.id, req)
	ch, err := dev.Enc(key, p.ID, mapped)
	tr.end(s)
	if err != nil {
		return o
	}
	s = tr.begin("core.auth", root.id, req)
	auth, err := dev.Auth(key, p.ID)
	tr.end(s)
	if err != nil {
		return o
	}

	t := time.Now()
	if err := l.upload(conn, match.Entry{ID: p.ID, KeyHash: key.Hash(), Chain: ch, Auth: auth}, root.id, req); err != nil {
		return o
	}
	o.up = time.Since(t)
	t = time.Now()
	res, err := l.query(conn, p.ID, root.id, req)
	if err != nil {
		return o
	}
	o.q = time.Since(t)
	o.results = len(res)
	o.tp, o.truth = l.ref.score(i, res)
	if o.mismatch = l.ref.check(i, res); o.mismatch != "" {
		return o
	}
	// Every node in the benchmark is honest, so a result that fails Vf
	// is a mismatch.
	s = tr.begin("core.vf", root.id, req)
	_, rejected, err := dev.VerifyResults(key, res)
	tr.end(s)
	if s.id != 0 {
		l.verified.Add(int64(len(res)))
	}
	if err != nil || rejected > 0 {
		o.mismatch = fmt.Sprintf("Vf rejected %d of %d results (err %v)", rejected, len(res), err)
		return o
	}
	o.ok = true
	return o
}

// request is one scheduled serve or routed operation.
type request struct {
	due   time.Duration
	query bool
	user  int
}

const (
	// queryShare is the share of serve and routed requests that are kNN
	// queries; the rest are durable re-uploads.
	queryShare = 0.8
	// rate is the serve and routed offered load in requests per second.
	// On a 2-vCPU host serve saturates near 20,000/s and routed near
	// 10,500/s. At half of routed's knee one burst of host CPU steal moved
	// the median latency sevenfold, so the rate is a fifth of it.
	rate = 2000
	// maxInFlight bounds the open loop's outstanding requests. When it
	// is reached the generator falls behind its schedule, which the lag
	// metric reports.
	maxInFlight = 256
)

// schedule draws seeded Poisson arrivals at rate for the window, each a
// query with probability queryShare, users uniform over the population.
func (l *loader) schedule(seconds float64, stream uint64) []request {
	rng := rand.New(rand.NewPCG(l.cfg.seed, stream))
	n := len(l.dep.ds.Profiles)
	var out []request
	for t := rng.ExpFloat64() / rate; t < seconds; t += rng.ExpFloat64() / rate {
		out = append(out, request{due: time.Duration(t * float64(time.Second)), user: rng.IntN(n), query: rng.Float64() < queryShare})
	}
	return out
}

// openLoop sends each request at its due time, whether or not earlier
// ones have completed, and adds what it saw to rec. rec's lag samples
// are how late the generator sent each request.
func (l *loader) openLoop(sched []request, rec *record) error {
	conns, closeAll, err := l.dialN(loadConns())
	if err != nil {
		return err
	}
	defer closeAll()
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range sched {
		due := start.Add(r.due)
		sleepUntil(due)
		sem <- struct{}{}
		rec.lag.add(time.Since(due))
		wg.Add(1)
		go func(i int, r request, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			o := l.send(conns[i%len(conns)], r, due, uint64(i+1))
			o.at = r.due
			rec.add(o)
		}(i, r, due)
	}
	wg.Wait()
	return nil
}

// send runs one request, timed from its due time, and checks its answer
// against the reference: the same IDs in the same order, each Auth
// byte-equal to one of that user's sealed blobs. A user's re-uploads
// alternate between its blobs, starting from the one not stored in
// set-up, so every write changes the stored record while its chain, and
// so every answer, stays fixed.
func (l *loader) send(conn *client.Conn, r request, due time.Time, req uint64) (o outcome) {
	root := l.tr.rootAt(rootRequest, due, req)
	o.query = r.query
	defer func() {
		o.lat = time.Since(due)
		l.tr.end(root)
	}()
	if !r.query {
		e := l.dep.entries[r.user]
		blobs := l.dep.blobs[r.user]
		e.Auth = blobs[int(l.uploads[r.user].Add(1))%len(blobs)]
		o.ok = l.upload(conn, e, root.id, req) == nil
		return o
	}
	res, err := l.query(conn, l.dep.entries[r.user].ID, root.id, req)
	if err != nil {
		return o
	}
	o.results = len(res)
	o.tp, o.truth = l.ref.score(r.user, res)
	if o.mismatch = l.ref.check(r.user, res); o.mismatch != "" {
		return o
	}
	for _, res := range res {
		if !l.sealed(res) {
			o.mismatch = fmt.Sprintf("result user %d carries an Auth blob that user never sealed", res.ID)
			return o
		}
	}
	o.ok = true
	return o
}

func (l *loader) sealed(r match.Result) bool {
	i, ok := l.ref.index[r.ID]
	if !ok {
		return false
	}
	for _, b := range l.dep.blobs[i] {
		if bytes.Equal(b, r.Auth) {
			return true
		}
	}
	return false
}
