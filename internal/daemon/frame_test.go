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
// must be refused by the frame lander — for a migration's target and for
// a standby alike — not stored in front of the puddle.
func TestFrameBoundsWrap(t *testing.T) {
	const sentinel = 0x5a5a_5a5a_5a5a_5a5a
	base := addrspace.Base + 1<<30
	pu := u(0x20)
	for _, c := range []struct {
		name  string
		frame func(t *testing.T, d *Daemon, conn *proto.Conn) *proto.Request
	}{
		{"migration", func(t *testing.T, d *Daemon, conn *proto.Conn) *proto.Request {
			id := u(0x70)
			man := &MigManifest{ID: id, Pool: "wrap", Root: pu,
				Puddles: []MigPuddle{{UUID: pu, Addr: uint64(base), Size: puddle.MinSize, Kind: uint64(puddle.KindData)}}}
			resp := rt(t, conn, &proto.Request{Op: proto.OpMigrateBegin, UUID: id, Blob: man.encode()})
			if len(resp.Puddles) != 1 || resp.Puddles[0].Addr != uint64(base) {
				t.Fatalf("begin placed %+v, want the identity address %#x", resp.Puddles, uint64(base))
			}
			return &proto.Request{Op: proto.OpMigrateChunk, UUID: id, Pool: pu}
		}},
		{"standby", func(t *testing.T, d *Daemon, conn *proto.Conn) *proto.Request {
			d.poolsMu.Lock()
			d.st.Standbys["wrap"] = &StandbyRec{Pool: "wrap", Root: pu,
				Puddles: []PuddleRec{{UUID: pu, Addr: uint64(base), Size: puddle.MinSize}}}
			d.poolsMu.Unlock()
			return &proto.Request{Op: proto.OpMigrateDelta, Name: "wrap", Pool: pu}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := pmem.New()
			d, err := New(dev)
			if err != nil {
				t.Fatal(err)
			}
			conn := d.SelfConn()
			defer conn.Close()
			dev.StoreU64(base-8, sentinel)
			dev.Persist(base-8, 8)
			req := c.frame(t, d, conn)
			req.Addr = ^uint64(7) // offset 2^64-8: offset+16 wraps to 8
			req.Blob = bytes.Repeat([]byte{0xee}, 16)
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
}
