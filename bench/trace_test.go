package main

import (
	"io"
	"net"
	"testing"
)

// A span's self time is its duration minus the union of its children's
// intervals: overlapping children (two workers) are not counted twice,
// and a child reaching past the parent is clipped.
func TestSelfTimeParentMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "op", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "op", Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "op", Start: 90, End: 120}, // clipped at 100
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	if self[1] != 100-40-10 { // children cover [10,50) and [90,100)
		t.Fatalf("round self = %d, want 50", self[1])
	}
	if self[2] != 20 || self[3] != 20 || self[5] != 10 {
		t.Fatalf("leaf/inner self = %d %d %d", self[2], self[3], self[5])
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, "x")
	tr.end(id)
	if id != 0 || tr.selfByName() != nil || tr.write("/nonexistent/should-not-be-written") != nil {
		t.Fatal("a nil tracer must do nothing")
	}
}

func TestTracerCountersAtSpanEdges(t *testing.T) {
	var fences uint64
	tr := newTracer(func() counters { return counters{Fences: fences} })
	id := tr.begin(0, "phase")
	fences = 7
	tr.end(id)
	if d := tr.spans[id-1].Delta; d == nil || d.Fences != 7 {
		t.Fatalf("delta = %+v, want 7 fences", d)
	}
}

func TestCountingConn(t *testing.T) {
	a, b := net.Pipe()
	var wc wireCounts
	c := countingConn{Conn: a, c: &wc}
	go func() {
		buf := make([]byte, 5)
		io.ReadFull(b, buf)
		b.Write([]byte("abc"))
		b.Close()
	}()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := c.Read(buf)
	if err != nil || n != 3 {
		t.Fatalf("read %d, %v", n, err)
	}
	if wc.calls.Load() != 2 || wc.bytes.Load() != 8 {
		t.Fatalf("counted %d calls, %d bytes; want 2 and 8", wc.calls.Load(), wc.bytes.Load())
	}
}
