package proto

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"puddles/internal/ptypes"
	"puddles/internal/uid"
)

// echoServer answers every request with a response derived from it,
// echoing the request ID as a real daemon does.
func echoServer(t *testing.T, handle func(*Request) *Response) *Conn {
	t.Helper()
	client, server := net.Pipe()
	go func() {
		sc := NewServerConn(server)
		defer sc.Close()
		if _, err := sc.AcceptHello(); err != nil {
			return
		}
		for {
			req, err := sc.Recv()
			if err != nil {
				return
			}
			resp := handle(req)
			resp.ID = req.ID
			if err := sc.Send(resp); err != nil {
				return
			}
		}
	}()
	c := NewConn(client)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRoundTripEcho(t *testing.T) {
	c := echoServer(t, func(req *Request) *Response {
		return &Response{Addr: req.Addr + 1, Names: []string{req.Name}}
	})
	resp, err := c.RoundTrip(&Request{Op: OpNop, Addr: 41, Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Addr != 42 || len(resp.Names) != 1 || resp.Names[0] != "x" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestRemoteError(t *testing.T) {
	c := echoServer(t, func(req *Request) *Response {
		return &Response{Err: "nope"}
	})
	_, err := c.RoundTrip(&Request{Op: OpOpenPool})
	re, ok := err.(*RemoteError)
	if !ok {
		t.Fatalf("err = %T %v", err, err)
	}
	if re.Op != OpOpenPool || re.Msg != "nope" {
		t.Fatalf("remote error = %+v", re)
	}
}

func TestComplexPayloadRoundTrip(t *testing.T) {
	id := uid.New()
	ti := ptypes.TypeInfo{ID: 7, Name: "n", Size: 24, Ptrs: []ptypes.PtrField{{Offset: 8}, {Offset: 16}}}
	c := echoServer(t, func(req *Request) *Response {
		return &Response{
			UUID:    req.UUID,
			Type:    req.Type,
			Blob:    req.Blob,
			Puddles: []PuddleInfo{{UUID: req.UUID, Addr: req.Addr, Size: req.Size}},
			Stats:   Stats{Pools: 3},
		}
	})
	resp, err := c.RoundTrip(&Request{UUID: id, Type: ti, Blob: []byte{1, 2, 3}, Addr: 0x1000, Size: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if resp.UUID != id || resp.Type.Name != "n" || len(resp.Type.Ptrs) != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if len(resp.Blob) != 3 || len(resp.Puddles) != 1 || resp.Puddles[0].Addr != 0x1000 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Stats.Pools != 3 {
		t.Fatal("stats lost")
	}
}

func TestDeadConnectionFails(t *testing.T) {
	client, server := net.Pipe()
	server.Close()
	c := NewConn(client)
	if _, err := c.RoundTrip(&Request{Op: OpNop}); err == nil {
		t.Fatal("round trip on dead connection succeeded")
	}
	// Subsequent calls fail fast with the sticky error.
	if _, err := c.RoundTrip(&Request{Op: OpNop}); err == nil {
		t.Fatal("sticky error missing")
	}
}

func TestConcurrentRoundTripsPipelined(t *testing.T) {
	c := echoServer(t, func(req *Request) *Response {
		return &Response{Addr: req.Addr}
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				resp, err := c.RoundTrip(&Request{Addr: uint64(i*1000 + j)})
				if err != nil {
					t.Errorf("rt: %v", err)
					return
				}
				if resp.Addr != uint64(i*1000+j) {
					t.Errorf("response crossed: got %d", resp.Addr)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestOutOfOrderResponses proves the ID matching: a server that
// answers request 1 only after request 2 must not cross responses.
func TestOutOfOrderResponses(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		sc := NewServerConn(server)
		defer sc.Close()
		if _, err := sc.AcceptHello(); err != nil {
			return
		}
		var held *Request
		for {
			req, err := sc.Recv()
			if err != nil {
				return
			}
			if held == nil {
				held = req // park the first request
				continue
			}
			// Answer the second first, then the parked one.
			if err := sc.Send(&Response{ID: req.ID, Addr: req.Addr}); err != nil {
				return
			}
			if err := sc.Send(&Response{ID: held.ID, Addr: held.Addr}); err != nil {
				return
			}
			held = nil
		}
	}()
	c := NewConn(client)
	defer c.Close()

	type res struct {
		want uint64
		resp *Response
		err  error
	}
	out := make(chan res, 2)
	var started sync.WaitGroup
	started.Add(1)
	go func() {
		started.Done()
		resp, err := c.RoundTrip(&Request{Addr: 111})
		out <- res{111, resp, err}
	}()
	started.Wait()
	// Crude but effective: the first goroutine's send happens-before
	// ours because net.Pipe sends rendezvous and the server parks the
	// first request it reads. Either order is still correct for the
	// assertion below — matching is by ID, not arrival order.
	resp, err := c.RoundTrip(&Request{Addr: 222})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Addr != 222 {
		t.Fatalf("second caller got response for %d", resp.Addr)
	}
	r := <-out
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.resp.Addr != r.want {
		t.Fatalf("first caller got response for %d, want %d", r.resp.Addr, r.want)
	}
}

// TestUnmatchedResponseFailsConn: a peer that does not echo request
// IDs (a pre-pipelining daemon) must produce an error, not a silent
// hang on a response that can never be matched.
func TestUnmatchedResponseFailsConn(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		sc := NewServerConn(server)
		defer sc.Close()
		if _, err := sc.AcceptHello(); err != nil {
			return
		}
		for {
			req, err := sc.Recv()
			if err != nil {
				return
			}
			// Old-style server: answers without echoing req.ID.
			if err := sc.Send(&Response{Addr: req.Addr}); err != nil {
				return
			}
		}
	}()
	c := NewConn(client)
	defer c.Close()
	if _, err := c.RoundTrip(&Request{Op: OpNop, Addr: 7}); err == nil {
		t.Fatal("round trip against non-echoing peer succeeded (or hung)")
	}
}

// TestCloseFailsOutstanding: closing the connection wakes blocked
// round trips with an error instead of leaking them.
func TestCloseFailsOutstanding(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		sc := NewServerConn(server)
		if _, err := sc.AcceptHello(); err != nil {
			return
		}
		for { // swallow requests, never answer
			if _, err := sc.Recv(); err != nil {
				return
			}
		}
	}()
	c := NewConn(client)
	errc := make(chan error, 1)
	go func() {
		_, err := c.RoundTrip(&Request{Op: OpNop})
		errc <- err
	}()
	// Wait for the request to be registered before closing.
	for {
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		if n > 0 {
			break
		}
	}
	c.Close()
	if err := <-errc; err == nil {
		t.Fatal("outstanding round trip survived Close")
	}
}

func TestServerRecvEOF(t *testing.T) {
	client, server := net.Pipe()
	sc := NewServerConn(server)
	client.Close()
	if _, err := sc.Recv(); err != io.EOF && err == nil {
		t.Fatalf("Recv on closed peer = %v", err)
	}
}

// TestHandshakeSession: the implicit handshake attaches a session and
// surfaces its ID/token; a resume Hello is marked Resumed.
func TestHandshakeSession(t *testing.T) {
	c := echoServer(t, func(req *Request) *Response {
		return &Response{Session: req.SID}
	})
	if err := c.Handshake(); err != nil {
		t.Fatal(err)
	}
	id, tok := c.Session()
	if id == 0 || tok == 0 {
		t.Fatalf("session = %d token = %d", id, tok)
	}
	if c.Resumed() {
		t.Fatal("fresh handshake reported Resumed")
	}
	// Requests carry the session ID.
	resp, err := c.RoundTrip(&Request{Op: OpNop})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Session != id {
		t.Fatalf("request SID = %d, want %d", resp.Session, id)
	}
}

// TestHandshakeVersionReject: a server speaking a different protocol
// version — a newer one, version 2 with its since-deleted warm-standby
// ops and stats, or version 3 with its since-deleted checkpoint-spill
// stat — rejects the connection with a HandshakeError, and the error is
// sticky.
func TestHandshakeVersionReject(t *testing.T) {
	for _, v := range []uint16{2, 3, ProtocolVersion + 1} {
		client, server := net.Pipe()
		go func() {
			sc := NewServerConn(server)
			defer sc.Close()
			sc.AcceptHello()
		}()
		c := NewConnHello(client, Hello{Version: v})
		_, err := c.RoundTrip(&Request{Op: OpNop})
		var he *HandshakeError
		if !errors.As(err, &he) || !strings.Contains(err.Error(), fmt.Sprintf("protocol version %d not supported", v)) {
			t.Fatalf("version %d: err = %T %v, want the typed version refusal", v, err, err)
		}
		if _, err := c.RoundTrip(&Request{Op: OpNop}); !errors.As(err, &he) {
			t.Fatalf("version %d: rejection not sticky: %v", v, err)
		}
		c.Close()
	}
}

func TestCheckHello(t *testing.T) {
	if msg := CheckHello(&Hello{Magic: HandshakeMagic, Version: ProtocolVersion}); msg != "" {
		t.Fatalf("valid hello rejected: %s", msg)
	}
	if msg := CheckHello(&Hello{Magic: 7, Version: ProtocolVersion}); msg == "" {
		t.Fatal("bad magic accepted")
	}
	if msg := CheckHello(&Hello{Magic: HandshakeMagic, Version: 99}); msg == "" {
		t.Fatal("bad version accepted")
	}
}

// TestCloseErrClosed: a local Close fails outstanding AND future round
// trips with ErrClosed specifically, not a raced decode error.
func TestCloseErrClosed(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		sc := NewServerConn(server)
		if _, err := sc.AcceptHello(); err != nil {
			return
		}
		for { // swallow requests, never answer
			if _, err := sc.Recv(); err != nil {
				return
			}
		}
	}()
	c := NewConn(client)
	errc := make(chan error, 1)
	go func() {
		_, err := c.RoundTrip(&Request{Op: OpNop})
		errc <- err
	}()
	for {
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		if n > 0 {
			break
		}
	}
	c.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("outstanding round trip after Close = %v, want ErrClosed", err)
	}
	if _, err := c.RoundTrip(&Request{Op: OpNop}); !errors.Is(err, ErrClosed) {
		t.Fatalf("future round trip after Close = %v, want ErrClosed", err)
	}
}

func TestOpString(t *testing.T) {
	if OpNop.String() != "Nop" || OpImportDone.String() != "ImportDone" {
		t.Fatal("Op names wrong")
	}
	if Op(999).String() == "" {
		t.Fatal("unknown op has empty name")
	}
}
