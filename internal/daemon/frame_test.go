package daemon

import (
	"bytes"
	"testing"

	"puddles/internal/addrspace"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/puddle"
)

// TestFrameBoundsWrap: a frame whose offset plus length wraps past 2^64
// must be refused by a migration target's frame lander, not stored in
// front of the puddle.
func TestFrameBoundsWrap(t *testing.T) {
	t.Run("migration", func(t *testing.T) {
		const sentinel = 0x5a5a_5a5a_5a5a_5a5a
		base := addrspace.Base + 1<<30
		pu, id := u(0x20), u(0x70)
		dev := pmem.New()
		d, err := New(dev)
		if err != nil {
			t.Fatal(err)
		}
		conn := d.SelfConn()
		defer conn.Close()
		dev.StoreU64(base-8, sentinel)
		dev.Persist(base-8, 8)
		man := &MigManifest{ID: id, Pool: "wrap", Root: pu,
			Puddles: []MigPuddle{{UUID: pu, Addr: uint64(base), Size: puddle.MinSize, Kind: uint64(puddle.KindData)}}}
		resp := rt(t, conn, &proto.Request{Op: proto.OpMigrateBegin, UUID: id, Blob: man.encode()})
		if len(resp.Puddles) != 1 || resp.Puddles[0].Addr != uint64(base) {
			t.Fatalf("begin placed %+v, want the identity address %#x", resp.Puddles, uint64(base))
		}
		req := &proto.Request{Op: proto.OpMigrateChunk, UUID: id, Pool: pu,
			Addr: ^uint64(7), // offset 2^64-8: offset+16 wraps to 8
			Blob: bytes.Repeat([]byte{0xee}, 16)}
		if _, err := conn.RoundTrip(req); err == nil {
			t.Fatal("a frame at offset 2^64-8 was landed")
		}
		if got := dev.LoadU64(base - 8); got != sentinel {
			t.Fatalf("the word before the puddle changed: %#x, want %#x", got, uint64(sentinel))
		}
		if got := dev.LoadU64(base); got != 0 {
			t.Fatalf("the puddle's first word changed: %#x", got)
		}
	})
}
