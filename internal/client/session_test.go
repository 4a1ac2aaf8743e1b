// Tests for the client's one session type in both framings: each
// request frame leaves in exactly one Write on the raw conn under TLS —
// one TLS record — and a deliberate Close is not counted as a broken
// connection.
package client

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"smatch/internal/metrics"
	"smatch/internal/wire"
)

// rawWriteCounter counts Write calls on the raw conn beneath TLS.
type rawWriteCounter struct {
	net.Conn
	n *atomic.Int64
}

func (c *rawWriteCounter) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(p)
}

// respondQueriesV2 answers every v2 query frame on the conn under its
// request ID.
func respondQueriesV2(conn net.Conn) {
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
}

func TestOneRawWritePerRequest(t *testing.T) {
	for _, tc := range []struct {
		name string
		v1   bool
	}{{"v1", true}, {"v2", false}} {
		t.Run(tc.name, func(t *testing.T) {
			addr := scriptServer(t, func(i int, conn net.Conn) {
				if tc.v1 {
					respondQueries(t, conn, 0)
					return
				}
				if expectHello(t, conn, 0) {
					respondQueriesV2(conn)
				}
			})
			var writes atomic.Int64
			dialer := func(network, address string) (net.Conn, error) {
				raw, err := net.DialTimeout(network, address, 2*time.Second)
				if err != nil {
					return nil, err
				}
				return &rawWriteCounter{Conn: raw, n: &writes}, nil
			}
			c, err := Dial(addr, Options{Timeout: 2 * time.Second, DisablePipeline: tc.v1, Dialer: dialer})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// The handshake and the hello are behind us after one request.
			if _, err := c.Query(1, 1); err != nil {
				t.Fatal(err)
			}
			before := writes.Load()
			const n = 20
			for i := 0; i < n; i++ {
				if _, err := c.Query(1, 1); err != nil {
					t.Fatal(err)
				}
			}
			if got := writes.Load() - before; got != n {
				t.Errorf("%d requests took %d raw writes, want %d (one TLS record each)", n, got, n)
			}
		})
	}
}

func TestCleanCloseNotCountedBroken(t *testing.T) {
	for _, tc := range []struct {
		name string
		v1   bool
	}{{"v1", true}, {"v2", false}} {
		t.Run(tc.name, func(t *testing.T) {
			addr := scriptServer(t, func(i int, conn net.Conn) {
				if tc.v1 {
					respondQueries(t, conn, 0)
					return
				}
				if expectHello(t, conn, 0) {
					respondQueriesV2(conn)
				}
			})
			reg := metrics.New()
			c, err := Dial(addr, Options{Timeout: 2 * time.Second, DisablePipeline: tc.v1, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Query(1, 1); err != nil {
				t.Fatal(err)
			}
			c.Close()
			if got := reg.ClientBrokenConns.Load(); got != 0 {
				t.Errorf("client_broken_conns = %d after a clean Close, want 0", got)
			}
		})
	}
}
