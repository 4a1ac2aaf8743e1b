// Tests for the v2 request multiplexer and the protocol negotiation:
// hello/ack upgrade, out-of-order response routing, per-request timeouts
// that spare a live connection, silent-connection poisoning, and the two
// lockstep fallbacks (a v1 server answering the hello with an error
// frame, and one that just closes the connection).
package client

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/profile"
	"smatch/internal/wire"
)

// expectHello consumes the client's v1-framed hello and acks the upgrade,
// optionally clamping the window.
func expectHello(t *testing.T, conn net.Conn, ackDepth uint16) bool {
	t.Helper()
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil || typ != wire.TypeHello {
		return false
	}
	if _, err := wire.DecodeHello(payload); err != nil {
		return false
	}
	ack := wire.Hello{Version: wire.ProtocolV2, Depth: ackDepth}
	return wire.WriteFrame(conn, wire.TypeHelloResp, ack.Encode()) == nil
}

// queryRespFor answers a v2 query frame, echoing the QueryID and
// returning the queried user itself as the single result so the test can
// detect any misrouting.
func queryRespFor(payload []byte) (*wire.QueryResp, error) {
	req, err := wire.DecodeQueryReq(payload)
	if err != nil {
		return nil, err
	}
	return &wire.QueryResp{
		QueryID:   req.QueryID,
		Timestamp: time.Now().Unix(),
		Results:   []match.Result{{ID: req.ID, Auth: []byte{1}}},
	}, nil
}

func TestMuxRoutesOutOfOrderResponses(t *testing.T) {
	// The server holds four requests and answers them in reverse order;
	// every caller must still receive its own response (the client
	// verifies both the request ID routing and the QueryID echo).
	const n = 4
	addr := scriptServer(t, func(i int, conn net.Conn) {
		if !expectHello(t, conn, 0) {
			return
		}
		type held struct {
			id      uint64
			payload []byte
		}
		var frames []held
		for len(frames) < n {
			id, typ, payload, err := wire.ReadFrameV2(conn)
			if err != nil || typ != wire.TypeQueryReq {
				return
			}
			frames = append(frames, held{id, payload})
		}
		for j := len(frames) - 1; j >= 0; j-- {
			resp, err := queryRespFor(frames[j].payload)
			if err != nil {
				return
			}
			if err := wire.WriteFrameV2(conn, frames[j].id, wire.TypeQueryResp, resp.Encode()); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, Options{Timeout: 2 * time.Second, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for u := 1; u <= n; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			results, err := c.Query(profile.ID(u), 1)
			if err != nil {
				errs <- err
				return
			}
			if len(results) != 1 || int(results[0].ID) != u {
				errs <- fmt.Errorf("caller %d got %+v (misrouted response)", u, results)
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMuxTimeoutOnLiveConnDoesNotPoison(t *testing.T) {
	// The server silently drops every query for user 66 but keeps
	// answering user 1. The dropped request must time out WITHOUT
	// poisoning the shared connection: the background caller never
	// breaks, nothing redials.
	var accepts atomic.Int32
	addr := scriptServer(t, func(i int, conn net.Conn) {
		accepts.Add(1)
		if !expectHello(t, conn, 0) {
			return
		}
		for {
			id, typ, payload, err := wire.ReadFrameV2(conn)
			if err != nil || typ != wire.TypeQueryReq {
				return
			}
			req, err := wire.DecodeQueryReq(payload)
			if err != nil {
				return
			}
			if req.ID == 66 {
				continue // drop: never answer this one
			}
			resp, err := queryRespFor(payload)
			if err != nil {
				return
			}
			if err := wire.WriteFrameV2(conn, id, wire.TypeQueryResp, resp.Encode()); err != nil {
				return
			}
		}
	})
	reg := metrics.New()
	c, err := Dial(addr, Options{Timeout: 400 * time.Millisecond, MaxRetries: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Background traffic keeps the conn demonstrably alive while the
	// dropped request waits out its timeout.
	stop := make(chan struct{})
	var bgErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Query(1, 1); err != nil {
				bgErr.Store(err)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	if _, err := c.Query(66, 1); err == nil {
		t.Error("dropped query reported success")
	} else if isConnFailure(err) {
		t.Errorf("timeout on a live conn poisoned the session: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := bgErr.Load(); err != nil {
		t.Errorf("background caller failed: %v", err)
	}
	if got := accepts.Load(); got != 1 {
		t.Errorf("server saw %d connections, want 1 (no redial)", got)
	}
	if got := reg.ClientBrokenConns.Load(); got != 0 {
		t.Errorf("client_broken_conns = %d, want 0", got)
	}
}

func TestMuxSilentConnPoisonedAndRedialed(t *testing.T) {
	// Connection 0 upgrades, then never answers anything: the first
	// query's timeout must poison it (the conn was silent the whole
	// wait) and the retry must succeed on a fresh connection.
	var accepts atomic.Int32
	addr := scriptServer(t, func(i int, conn net.Conn) {
		accepts.Add(1)
		if !expectHello(t, conn, 0) {
			return
		}
		if i == 0 {
			// Swallow requests forever.
			for {
				if _, _, _, err := wire.ReadFrameV2(conn); err != nil {
					return
				}
			}
		}
		for {
			id, typ, payload, err := wire.ReadFrameV2(conn)
			if err != nil || typ != wire.TypeQueryReq {
				return
			}
			resp, err := queryRespFor(payload)
			if err != nil {
				return
			}
			if err := wire.WriteFrameV2(conn, id, wire.TypeQueryResp, resp.Encode()); err != nil {
				return
			}
		}
	})
	reg := metrics.New()
	c, err := Dial(addr, Options{Timeout: 250 * time.Millisecond, MaxRetries: 2,
		RetryBackoff: 5 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results, err := c.Query(5, 1)
	if err != nil {
		t.Fatalf("query did not recover from a dead pipelined conn: %v", err)
	}
	if len(results) != 1 || results[0].ID != 5 {
		t.Errorf("results = %+v, want user 5", results)
	}
	if got := accepts.Load(); got != 2 {
		t.Errorf("server saw %d connections, want 2 (poison + redial)", got)
	}
	if got := reg.ClientBrokenConns.Load(); got == 0 {
		t.Error("silent conn not counted as broken")
	}
}

func TestFallbackOnErrorFrameKeepsConn(t *testing.T) {
	// A v1 server answers the hello with an error frame and keeps the
	// stream in sync; the client must continue in lockstep on the SAME
	// connection and skip the hello on later redials.
	var accepts atomic.Int32
	var hellosSeen atomic.Int32
	addr := scriptServer(t, func(i int, conn net.Conn) {
		accepts.Add(1)
		for {
			typ, payload, err := wire.ReadFrame(conn)
			if err != nil {
				return
			}
			switch typ {
			case wire.TypeHello:
				hellosSeen.Add(1)
				msg := wire.ErrorMsg{Text: "unknown message type"}
				if err := wire.WriteFrame(conn, wire.TypeError, msg.Encode()); err != nil {
					return
				}
			case wire.TypeQueryReq:
				req, err := wire.DecodeQueryReq(payload)
				if err != nil {
					return
				}
				resp := wire.QueryResp{QueryID: req.QueryID, Timestamp: time.Now().Unix(),
					Results: []match.Result{{ID: req.ID, Auth: []byte{1}}}}
				if err := wire.WriteFrame(conn, wire.TypeQueryResp, resp.Encode()); err != nil {
					return
				}
			default:
				return
			}
		}
	})
	c, err := Dial(addr, Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(3, 1); err != nil {
		t.Fatalf("lockstep fallback query failed: %v", err)
	}
	if got := accepts.Load(); got != 1 {
		t.Errorf("server saw %d connections, want 1 (error-frame fallback reuses the conn)", got)
	}
	// Force a redial; the client must not offer the hello again.
	c.markBroken()
	if _, err := c.Query(4, 1); err != nil {
		t.Fatalf("query after redial failed: %v", err)
	}
	if got := hellosSeen.Load(); got != 1 {
		t.Errorf("server saw %d hellos, want 1 (fallback must be sticky)", got)
	}
}

func TestFallbackWhenServerClosesOnHello(t *testing.T) {
	// A stricter v1 server drops the connection on an unknown frame type;
	// the client must transparently redial and speak lockstep.
	var accepts atomic.Int32
	addr := scriptServer(t, func(i int, conn net.Conn) {
		accepts.Add(1)
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		if typ == wire.TypeHello {
			return // close without a word
		}
		if typ != wire.TypeQueryReq {
			return
		}
		// Post-fallback conn: the first frame is already a query. Answer
		// it, then serve the rest in lockstep.
		req, err := wire.DecodeQueryReq(payload)
		if err != nil {
			return
		}
		resp := wire.QueryResp{QueryID: req.QueryID, Timestamp: time.Now().Unix(),
			Results: []match.Result{{ID: 42, Auth: []byte{1}}}}
		if err := wire.WriteFrame(conn, wire.TypeQueryResp, resp.Encode()); err != nil {
			return
		}
		respondQueries(t, conn, 0)
	})
	c, err := Dial(addr, Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(1, 5); err != nil {
		t.Fatalf("query after close-on-hello fallback failed: %v", err)
	}
	if got := accepts.Load(); got != 2 {
		t.Errorf("server saw %d connections, want 2 (hello conn + lockstep redial)", got)
	}
}

func TestMuxWindowRespectsServerClamp(t *testing.T) {
	// The server acks the hello with Depth=1: even with many concurrent
	// callers, at most one request may be outstanding at a time.
	var inFlight, maxInFlight atomic.Int32
	addr := scriptServer(t, func(i int, conn net.Conn) {
		if !expectHello(t, conn, 1) {
			return
		}
		for {
			id, typ, payload, err := wire.ReadFrameV2(conn)
			if err != nil || typ != wire.TypeQueryReq {
				return
			}
			if v := inFlight.Add(1); v > maxInFlight.Load() {
				maxInFlight.Store(v)
			}
			time.Sleep(10 * time.Millisecond)
			resp, err := queryRespFor(payload)
			if err != nil {
				return
			}
			inFlight.Add(-1)
			if err := wire.WriteFrameV2(conn, id, wire.TypeQueryResp, resp.Encode()); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, Options{Timeout: 5 * time.Second, MaxInFlight: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := c.Query(profile.ID(g+1), 1); err != nil {
				t.Errorf("query %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if got := maxInFlight.Load(); got > 1 {
		t.Errorf("observed %d concurrent requests, want at most the acked window of 1", got)
	}
}

// TestMuxRequestsLeaveNoLiveTimers pins the window-acquire fast path: a
// request that finds a free slot arms no timer, so sequential requests
// under a long timeout leave nothing behind on the heap. Arming one per
// request (time.After) kept every timer live for the full hour.
func TestMuxRequestsLeaveNoLiveTimers(t *testing.T) {
	addr := scriptServer(t, func(i int, conn net.Conn) {
		if !expectHello(t, conn, 0) {
			return
		}
		for {
			id, typ, payload, err := wire.ReadFrameV2(conn)
			if err != nil || typ != wire.TypeQueryReq {
				return
			}
			resp, err := queryRespFor(payload)
			if err != nil {
				return
			}
			if err := wire.WriteFrameV2(conn, id, wire.TypeQueryResp, resp.Encode()); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, Options{Timeout: time.Hour, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	query := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.Query(1, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	heapObjects := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	query(100) // warm pools and the session
	before := heapObjects()
	const n = 5000
	query(n)
	after := heapObjects()
	if after > before && after-before > n/5 {
		t.Errorf("heap grew by %d objects over %d requests; per-request state is being retained", after-before, n)
	}
}

func TestSlowHelloAckDoesNotPinV1(t *testing.T) {
	// Connection 0 acks the hello only after the client's timeout. A late
	// ack says nothing about the server's version: the dial must fail as
	// a connection failure, not fall back to v1 for good, and the next
	// dial must offer the hello again and upgrade.
	var hellos atomic.Int32
	addr := scriptServer(t, func(i int, conn net.Conn) {
		if i == 0 {
			typ, _, err := wire.ReadFrame(conn)
			if err != nil || typ != wire.TypeHello {
				return
			}
			hellos.Add(1)
			time.Sleep(600 * time.Millisecond)
			ack := wire.Hello{Version: wire.ProtocolV2, Depth: 8}
			wire.WriteFrame(conn, wire.TypeHelloResp, ack.Encode())
			return
		}
		if !expectHello(t, conn, 0) {
			return
		}
		hellos.Add(1)
		respondQueriesV2(conn)
	})
	opts := Options{Timeout: 200 * time.Millisecond, MaxRetries: -1}
	if c, err := Dial(addr, opts); err == nil {
		c.Close()
		t.Fatal("Dial succeeded although the hello ack came after the timeout (fell back to v1)")
	} else if !isConnFailure(err) {
		t.Fatalf("late hello ack: Dial error %v, want a connection failure", err)
	}
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatalf("redial after a late hello ack: %v", err)
	}
	defer c.Close()
	if _, err := c.Query(5, 1); err != nil {
		t.Fatalf("query on the redialed conn: %v", err)
	}
	c.mu.Lock()
	v1, noV2 := c.sess.v1, c.noV2
	c.mu.Unlock()
	if v1 || noV2 {
		t.Errorf("after a late ack: session v1=%v noV2=%v, want a v2 session", v1, noV2)
	}
	if got := hellos.Load(); got != 2 {
		t.Errorf("server saw %d hellos, want 2 (the redial offers v2 again)", got)
	}
}
