package daemon

import (
	"bytes"
	"fmt"
	"testing"

	"puddles/internal/plog"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/puddle"
)

// Recovery reads the registry for every replayed entry, so its cost
// must follow the entries, not the number of registered puddles.
const (
	benchRecoveryApps    = 8  // pools, each with one log space and one pending log
	benchRecoveryEntries = 64 // undo entries per pending log
	benchPadPerPool      = 100
)

// dirtyImage returns the image of a daemon that died with
// benchRecoveryApps transactions of benchRecoveryEntries undo entries in
// flight, its registry padded with idle puddles (pools of
// benchPadPerPool puddles each, roots included) to about idle puddles.
func dirtyImage(tb testing.TB, idle int) []byte {
	tb.Helper()
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		tb.Fatal(err)
	}
	c := d.SelfConn()
	defer c.Close()
	for p := 0; p*benchPadPerPool < idle; p++ {
		pool := rt(tb, c, &proto.Request{Op: proto.OpCreatePool, Name: fmt.Sprintf("pad-%d", p), Size: 4 * pmem.PageSize})
		for i := 1; i < benchPadPerPool && p*benchPadPerPool+i < idle; i++ {
			rt(tb, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize, Kind: uint64(puddle.KindLog)})
		}
	}
	for a := 0; a < benchRecoveryApps; a++ {
		pool := rt(tb, c, &proto.Request{Op: proto.OpCreatePool, Name: fmt.Sprintf("app-%d", a)})
		lsp := rt(tb, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize, Kind: uint64(puddle.KindLogSpace)})
		logp := rt(tb, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: 4 * pmem.PageSize, Kind: uint64(puddle.KindLog)})
		lsh, err := puddle.Open(dev, pmem.Addr(lsp.Addr))
		if err != nil {
			tb.Fatal(err)
		}
		space, err := plog.FormatShardedLogSpace(lsh, 1)
		if err != nil {
			tb.Fatal(err)
		}
		lh, err := puddle.Open(dev, pmem.Addr(logp.Addr))
		if err != nil {
			tb.Fatal(err)
		}
		l, err := plog.FormatLog(dev, pmem.Range{Start: lh.HeapBase(), End: lh.HeapBase() + pmem.Addr(lh.HeapSize())})
		if err != nil {
			tb.Fatal(err)
		}
		if err := space.AddLog(0, l.Head(), lh.UUID()); err != nil {
			tb.Fatal(err)
		}
		rt(tb, c, &proto.Request{Op: proto.OpRegLogSpace, UUID: lsp.UUID})
		var old [8]byte
		for k := 0; k < benchRecoveryEntries; k++ {
			target := pmem.Addr(pool.Addr) + 8192 + pmem.Addr(8*k)
			if err := l.Append(plog.Entry{Addr: target, Seq: plog.SeqUndo, Order: plog.OrderBackward, Data: old[:]}, nil); err != nil {
				tb.Fatal(err)
			}
		}
	}
	// The daemon "dies" here: no Shutdown, the dirty flag stays set.
	var img bytes.Buffer
	if err := dev.Save(&img); err != nil {
		tb.Fatal(err)
	}
	return img.Bytes()
}

// BenchmarkRecovery times a dirty boot, daemon.New included whole, with
// the same pending logs behind registries of two sizes.
func BenchmarkRecovery(b *testing.B) {
	for _, idle := range []int{100, 10000} {
		b.Run(fmt.Sprintf("puddles-%d", idle), func(b *testing.B) {
			img := dirtyImage(b, idle)
			var recoverNs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev := pmem.New()
				if err := dev.Restore(bytes.NewReader(img)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				d, err := New(dev)
				if err != nil {
					b.Fatal(err)
				}
				if st := d.Stats(); st.EntriesApplied != benchRecoveryApps*benchRecoveryEntries {
					b.Fatalf("applied %d entries, want %d", st.EntriesApplied, benchRecoveryApps*benchRecoveryEntries)
				}
				recoverNs += d.bootRecoverNs
			}
			b.ReportMetric(float64(recoverNs)/float64(b.N), "recovery-ns/op")
		})
	}
}
