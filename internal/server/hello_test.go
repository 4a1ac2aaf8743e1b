// Tests for the hello boundary of the connection lifecycle: a connection
// starts in v1 framing and switches to v2 on an accepted hello. A v1
// request written ahead of the hello must be answered before the ack,
// the first frame after the ack is v2, and a malformed hello leaves the
// connection on v1.
package server

import (
	"bytes"
	"testing"
	"time"

	"smatch/internal/wire"
)

func TestHelloBoundaryAnswersV1BeforeAck(t *testing.T) {
	addr, srv := startServer(t)
	raw := dialRawTLS(t, addr)
	if err := raw.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}

	// An upload and a hello in one write, without reading in between: the
	// server holds the hello before the upload's response is out.
	var both bytes.Buffer
	up := uploadReqForTest(1, "boundary", 10)
	if err := wire.WriteFrame(&both, wire.TypeUploadReq, up.Encode()); err != nil {
		t.Fatal(err)
	}
	hello := wire.Hello{Version: wire.ProtocolV2, Depth: 4}
	if err := wire.WriteFrame(&both, wire.TypeHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(both.Bytes()); err != nil {
		t.Fatal(err)
	}

	if rt, payload, err := wire.ReadFrame(raw); err != nil || rt != wire.TypeUploadResp {
		t.Fatalf("first frame after upload+hello: type %d (%q) err %v, want the upload response", rt, payload, err)
	}
	rt, payload, err := wire.ReadFrame(raw)
	if err != nil || rt != wire.TypeHelloResp {
		t.Fatalf("second frame: type %d (%q) err %v, want the hello ack", rt, payload, err)
	}
	ack, err := wire.DecodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Depth != 4 {
		t.Errorf("ack depth %d, want the client's 4", ack.Depth)
	}

	// The next frame parses as v2 and is answered under its request ID.
	q := wire.QueryReq{QueryID: 3, Timestamp: time.Now().Unix(), ID: 1, TopK: 1}
	if err := wire.WriteFrameV2(raw, 77, wire.TypeQueryReq, q.Encode()); err != nil {
		t.Fatal(err)
	}
	id, rt, payload, err := wire.ReadFrameV2(raw)
	if err != nil {
		t.Fatal(err)
	}
	if id != 77 || rt != wire.TypeQueryResp {
		t.Fatalf("v2 response: id %d type %d (%q), want id 77 query response", id, rt, payload)
	}
	resp, err := wire.DecodeQueryResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.QueryID != 3 {
		t.Errorf("v2 response carries query %d, want 3", resp.QueryID)
	}
	if got := srv.Metrics().PipelinedConns.Load(); got != 1 {
		t.Errorf("pipelined_conns = %d, want 1", got)
	}
}

func TestMalformedHelloStaysV1(t *testing.T) {
	addr, srv := startServer(t)
	raw := dialRawTLS(t, addr)
	if err := raw.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}

	// A truncated hello payload: answered with a v1 error frame.
	if err := wire.WriteFrame(raw, wire.TypeHello, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	rt, payload, err := wire.ReadFrame(raw)
	if err != nil || rt != wire.TypeError {
		t.Fatalf("malformed hello answered with type %d (%q) err %v, want a v1 error frame", rt, payload, err)
	}
	if _, err := wire.DecodeErrorMsg(payload); err != nil {
		t.Fatalf("error frame payload undecodable: %v", err)
	}

	// The connection stays v1: a v1 request is answered in v1 framing.
	if err := wire.WriteFrame(raw, wire.TypeOPRFKeyReq, nil); err != nil {
		t.Fatal(err)
	}
	rt, payload, err = wire.ReadFrame(raw)
	if err != nil || rt != wire.TypeOPRFKeyResp {
		t.Fatalf("v1 request after a malformed hello: type %d err %v, want the OPRF key response", rt, err)
	}
	if _, err := wire.DecodeOPRFKeyResp(payload); err != nil {
		t.Fatalf("OPRF key response undecodable (framing switched?): %v", err)
	}
	if got := srv.Metrics().PipelinedConns.Load(); got != 0 {
		t.Errorf("pipelined_conns = %d after a malformed hello, want 0", got)
	}
}
