package daemon

import (
	"bytes"
	"testing"
	"time"

	"puddles/internal/alloc"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/puddle"
)

// TestRecycledRangeComesBackClean: a freed range is handed out again
// without scrubbing its heap, so the header is all a grant may trust.
// Dirty every header field Format does not set, free the puddle, take
// the same range again, and the header must read exactly as a fresh
// format leaves it. The fast device exercises Zero's skip-zero path,
// the chaos device its plain store of zeros.
func TestRecycledRangeComesBackClean(t *testing.T) {
	for _, dev := range []*pmem.Device{pmem.New(), pmem.NewChaos(1)} {
		t.Run(dev.Mode().String(), func(t *testing.T) {
			d, err := New(dev)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Kill)
			call := func(req *proto.Request) *proto.Response {
				t.Helper()
				resp := d.Dispatch(Creds{}, req)
				if resp.Err != "" {
					t.Fatalf("%v: %s", req.Op, resp.Err)
				}
				return resp
			}
			pool := call(&proto.Request{Op: proto.OpCreatePool, Name: "recycle"})
			grant := &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize}
			first := call(grant)
			p, err := puddle.Open(dev, pmem.Addr(first.Addr))
			if err != nil {
				t.Fatal(err)
			}

			if _, err := alloc.NewHeap(p).AllocLarge(alloc.Direct{Dev: dev}, 1, 1500); err != nil {
				t.Fatal(err)
			}
			p.SetRootType(7, 64)
			p.SetFlags(^uint64(0))
			p.SetFreeze(puddle.FreezeMoved)
			dev.StoreU64(p.ActiveTxAddr(), 3)
			slot := p.Base + pmem.Addr(p.HeaderBytes()) - 64 // the last cache-record slot
			dev.Store(slot, bytes.Repeat([]byte{0x5a}, 64))
			dev.Persist(p.Base, int(p.HeaderBytes()))

			call(&proto.Request{Op: proto.OpFreePuddle, UUID: first.UUID})
			again := call(grant)
			if again.Addr != first.Addr {
				t.Fatalf("second grant at %#x, first at %#x: first-fit did not reuse the range", again.Addr, first.Addr)
			}
			p, err = puddle.Open(dev, pmem.Addr(again.Addr))
			if err != nil {
				t.Fatal(err)
			}

			// The header must equal a fresh format's byte for byte: the
			// identity words and the block map as Format writes them,
			// every other word and every cache-record slot zero.
			fresh, err := puddle.Format(pmem.New(), p.Base, puddle.MinSize, again.UUID, puddle.KindData, pool.Pool)
			if err != nil {
				t.Fatal(err)
			}
			alloc.Format(fresh, alloc.Direct{Dev: fresh.Dev})
			got, want := make([]byte, p.HeaderBytes()), make([]byte, p.HeaderBytes())
			dev.Load(p.Base, got)
			fresh.Dev.Load(fresh.Base, want)
			for off := range got {
				if got[off] != want[off] {
					t.Fatalf("header byte %d = %#x after the reuse, %#x after a fresh format", off, got[off], want[off])
				}
			}

			h := alloc.NewHeap(p)
			if err := h.Validate(); err != nil {
				t.Fatal(err)
			}
			if n := h.LiveObjects(); n != 0 {
				t.Fatalf("reused heap has %d live objects", n)
			}
		})
	}
}

// BenchmarkDaemon_GrantFree times one 8 KiB grant plus its free
// through direct Dispatch calls, no session or wire, at a 200 ns fence
// latency: the control plane's hot write without the transport.
func BenchmarkDaemon_GrantFree(b *testing.B) {
	dev := pmem.New()
	dev.SetFenceLatency(200 * time.Nanosecond)
	d, err := New(dev)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Kill()
	call := func(req *proto.Request) *proto.Response {
		resp := d.Dispatch(Creds{}, req)
		if resp.Err != "" {
			b.Fatalf("%v: %s", req.Op, resp.Err)
		}
		return resp
	}
	pool := call(&proto.Request{Op: proto.OpCreatePool, Name: "grant-free"})
	grant := &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := call(grant)
		call(&proto.Request{Op: proto.OpFreePuddle, UUID: resp.UUID})
	}
}
