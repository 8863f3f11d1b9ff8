// Benchmarks regenerating the paper's tables and figures as testing.B
// micro-versions. cmd/benchrunner produces the full paper-style tables
// (fixed op counts, execution-time rows); these benches give per-op
// costs for the same code paths and feed `go test -bench`.
//
// Index (see DESIGN.md §5 and EXPERIMENTS.md):
//
//	BenchmarkFig1_*   — fat vs native pointer overhead (Figure 1)
//	BenchmarkTable3_* — API primitive latencies (Table 3)
//	BenchmarkDaemon_* — daemon primitives (§5.1)
//	BenchmarkReloc_*  — relocatability primitives (§5.1)
//	BenchmarkFig9_*   — linked list ops across libraries (Figure 9)
//	BenchmarkFig10_*  — order-8 B-tree ops across libraries (Figure 10)
//	BenchmarkFig11_*  — YCSB workloads across libraries (Figure 11)
//	BenchmarkFig12_*  — multithreaded transaction scaling (Figure 12)
//	BenchmarkFig14_*  — sensor aggregation, Puddles vs PMDK (Fig. 14)
package puddles_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"puddles/internal/baselines/atlas"
	"puddles/internal/baselines/gopmem"
	"puddles/internal/baselines/pmdk"
	"puddles/internal/baselines/puddleslib"
	"puddles/internal/baselines/romulus"
	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/kvstore"
	"puddles/internal/pmem"
	"puddles/internal/pmlib"
	"puddles/internal/proto"
	"puddles/internal/ptypes"
	"puddles/internal/puddle"
	"puddles/internal/sensornet"
	"puddles/internal/structures"
	"puddles/internal/ycsb"
)

// --- Figure 1 ---

func BenchmarkFig1_ListTraverse(b *testing.B) {
	const nodes = 1 << 16
	for _, mk := range []struct {
		name string
		mk   func() structures.PtrCodec
	}{
		{"native", func() structures.PtrCodec { return structures.NativeCodec{} }},
		{"fat", func() structures.PtrCodec { return structures.NewFatCodec(0x100000) }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			dev := pmem.New()
			l := structures.NewRawList(dev, mk.mk(), 0x100000, 1<<30)
			l.Build(nodes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if l.Traverse() == 0 {
					b.Fatal("empty")
				}
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}

func BenchmarkFig1_TreeTraverseDF(b *testing.B) {
	const height = 14
	for _, mk := range []struct {
		name string
		mk   func() structures.PtrCodec
	}{
		{"native", func() structures.PtrCodec { return structures.NativeCodec{} }},
		{"fat", func() structures.PtrCodec { return structures.NewFatCodec(0x100000) }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			dev := pmem.New()
			t := structures.NewRawTree(dev, mk.mk(), 0x100000)
			t.Build(height)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if t.TraverseDF() == 0 {
					b.Fatal("empty")
				}
			}
		})
	}
}

// --- Table 3 ---

func table3Libs(b *testing.B) []pmlib.Lib {
	b.Helper()
	pl, err := puddleslib.New()
	if err != nil {
		b.Fatal(err)
	}
	pk, err := pmdk.NewLib(1 << 30)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pl.Close(); pk.Close() })
	return []pmlib.Lib{pl, pk}
}

func BenchmarkTable3_TxNop(b *testing.B) {
	for _, lib := range table3Libs(b) {
		b.Run(lib.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := lib.Run(func(tx pmlib.Tx) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable3_TxAdd(b *testing.B) {
	for _, size := range []int{8, 4096} {
		for _, lib := range table3Libs(b) {
			b.Run(fmt.Sprintf("%s/%dB", lib.Name(), size), func(b *testing.B) {
				root, err := lib.Root(8192)
				if err != nil {
					b.Fatal(err)
				}
				addr := lib.Deref(root)
				buf := make([]byte, size)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := lib.Run(func(tx pmlib.Tx) error { return tx.Set(addr, buf) }); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTable3_MallocFree(b *testing.B) {
	for _, size := range []uint32{8, 4096} {
		for _, lib := range table3Libs(b) {
			b.Run(fmt.Sprintf("%s/%dB", lib.Name(), size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := lib.Run(func(tx pmlib.Tx) error {
						r, err := tx.Alloc(size)
						if err != nil {
							return err
						}
						return tx.Free(r)
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- §5.1 daemon primitives ---

func BenchmarkDaemon_NopRoundTrip(b *testing.B) {
	d, err := daemon.New(pmem.New())
	if err != nil {
		b.Fatal(err)
	}
	c := core.ConnectLocal(d)
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Nop(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDaemon_GetNewPuddle(b *testing.B) {
	d, err := daemon.New(pmem.New())
	if err != nil {
		b.Fatal(err)
	}
	c := core.ConnectLocal(d)
	defer c.Close()
	pool, err := c.CreatePool("bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RoundTrip(&proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.UUID, Size: puddle.MinSize}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDaemon_GetExistPuddle(b *testing.B) {
	d, err := daemon.New(pmem.New())
	if err != nil {
		b.Fatal(err)
	}
	c := core.ConnectLocal(d)
	defer c.Close()
	pool, err := c.CreatePool("bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := c.RoundTrip(&proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.UUID, Size: puddle.MinSize})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RoundTrip(&proto.Request{Op: proto.OpGetExistPuddle, UUID: resp.UUID}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §5.1 relocatability primitives ---

func relocPool(b *testing.B, c *core.Client, name string, nodes int) []byte {
	b.Helper()
	nodeT, err := c.RegisterType("bench.node", 16, []ptypes.PtrField{{Offset: 8}})
	if err != nil && err != ptypes.ErrDuplicate {
		// registering twice across sub-benches is fine
		_ = err
	}
	rootT, _ := c.RegisterType("bench.root", 16, []ptypes.PtrField{{Offset: 0}})
	pool, err := c.CreatePool(name, 0)
	if err != nil {
		b.Fatal(err)
	}
	root, err := pool.CreateRoot(rootT.ID, 16)
	if err != nil {
		b.Fatal(err)
	}
	dev := c.Device()
	prev := root
	for i := 0; i < nodes; i++ {
		a, err := pool.Malloc(nodeT.ID, 16)
		if err != nil {
			b.Fatal(err)
		}
		dev.StoreU64(a, uint64(i))
		dev.StoreU64(prev, uint64(a))
		prev = a + 8
	}
	blob, err := pool.Export()
	if err != nil {
		b.Fatal(err)
	}
	return blob
}

func BenchmarkReloc_ExportImportRewrite(b *testing.B) {
	for _, nodes := range []int{20, 2000, 20000} {
		b.Run(fmt.Sprintf("%dptrs", nodes), func(b *testing.B) {
			d, err := daemon.New(pmem.New())
			if err != nil {
				b.Fatal(err)
			}
			c := core.ConnectLocal(d)
			defer c.Close()
			blob := relocPool(b, c, "src", nodes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clone, err := c.ImportPool(fmt.Sprintf("clone-%d", i), blob, false)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := clone.Delete(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(nodes+1), "ptrs/op")
		})
	}
}

// --- Figure 9 ---

func fig9Libs(b *testing.B) []pmlib.Lib {
	b.Helper()
	pl, err := puddleslib.New()
	if err != nil {
		b.Fatal(err)
	}
	pk, err := pmdk.NewLib(2 << 30)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := romulus.NewLib(1 << 30)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pl.Close(); pk.Close(); rm.Close() })
	return []pmlib.Lib{pl, pk, rm}
}

func BenchmarkFig9_ListInsert(b *testing.B) {
	for _, lib := range fig9Libs(b) {
		b.Run(lib.Name(), func(b *testing.B) {
			l, err := structures.NewList(lib)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig9_ListTraverse(b *testing.B) {
	// Libs are built inside the sub-benchmark: the harness re-invokes
	// the closure with growing b.N, and a shared list would accumulate
	// nodes across invocations.
	const nodes = 50000
	for _, name := range []string{"puddles", "pmdk", "romulus"} {
		b.Run(name, func(b *testing.B) {
			lib := mkFig9Lib(b, name)
			l, err := structures.NewList(lib)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < nodes; i++ {
				if err := l.Append(uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if l.Sum() != uint64(nodes)*uint64(nodes-1)/2 {
					b.Fatal("bad sum")
				}
			}
			b.ReportMetric(nodes, "nodes/op")
		})
	}
}

// mkFig9Lib constructs one comparison library by name.
func mkFig9Lib(b *testing.B, name string) pmlib.Lib {
	b.Helper()
	var lib pmlib.Lib
	var err error
	switch name {
	case "puddles":
		lib, err = puddleslib.New()
	case "pmdk":
		lib, err = pmdk.NewLib(2 << 30)
	case "romulus":
		lib, err = romulus.NewLib(1 << 30)
	default:
		b.Fatalf("unknown lib %q", name)
	}
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { lib.Close() })
	return lib
}

func BenchmarkFig9_ListDelete(b *testing.B) {
	for _, lib := range fig9Libs(b) {
		b.Run(lib.Name(), func(b *testing.B) {
			l, err := structures.NewList(lib)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if err := l.Append(uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.PopHead(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 10 ---

func BenchmarkFig10_BTree(b *testing.B) {
	for _, phase := range []string{"insert", "search", "delete"} {
		for _, lib := range fig9Libs(b) {
			b.Run(phase+"/"+lib.Name(), func(b *testing.B) {
				bt, err := structures.NewBTree(lib)
				if err != nil {
					b.Fatal(err)
				}
				if phase != "insert" {
					for i := 0; i < b.N; i++ {
						if err := bt.Insert(mix(uint64(i)), uint64(i)); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ResetTimer()
				switch phase {
				case "insert":
					for i := 0; i < b.N; i++ {
						if err := bt.Insert(mix(uint64(i)), uint64(i)); err != nil {
							b.Fatal(err)
						}
					}
				case "search":
					for i := 0; i < b.N; i++ {
						if _, ok := bt.Search(mix(uint64(i))); !ok {
							b.Fatal("missing key")
						}
					}
				case "delete":
					for i := 0; i < b.N; i++ {
						if _, err := bt.Delete(mix(uint64(i))); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

func mix(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	return v
}

// --- Figure 11 ---

func BenchmarkFig11_YCSB(b *testing.B) {
	const records = 20000
	mkLibs := func(b *testing.B) []pmlib.Lib {
		pl, err := puddleslib.New()
		if err != nil {
			b.Fatal(err)
		}
		pk, err := pmdk.NewLib(2 << 30)
		if err != nil {
			b.Fatal(err)
		}
		rm, err := romulus.NewLib(1 << 30)
		if err != nil {
			b.Fatal(err)
		}
		gp, err := gopmem.NewLib(2 << 30)
		if err != nil {
			b.Fatal(err)
		}
		at, err := atlas.NewLib(2 << 30)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			for _, l := range []pmlib.Lib{pl, pk, rm, gp, at} {
				l.Close()
			}
		})
		return []pmlib.Lib{pl, pk, rm, gp, at}
	}
	for _, wname := range []string{"A", "B", "C", "D", "E", "F", "G"} {
		w, err := ycsb.WorkloadByName(wname)
		if err != nil {
			b.Fatal(err)
		}
		for _, lib := range mkLibs(b) {
			b.Run(wname+"/"+lib.Name(), func(b *testing.B) {
				s, err := kvstore.New(lib, kvstore.Options{Buckets: 1 << 15, ValueSize: 100})
				if err != nil {
					b.Fatal(err)
				}
				value := make([]byte, 100)
				for _, k := range ycsb.LoadKeys(records) {
					if err := s.Put(k, value); err != nil {
						b.Fatal(err)
					}
				}
				g := ycsb.NewGenerator(w, records, 42)
				buf := make([]byte, 100)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op := g.Next()
					switch op.Kind {
					case ycsb.OpRead:
						if err := s.Get(op.Key, buf); err != nil {
							b.Fatal(err)
						}
					case ycsb.OpUpdate, ycsb.OpInsert:
						if err := s.Put(op.Key, value); err != nil {
							b.Fatal(err)
						}
					case ycsb.OpScan:
						s.Scan(op.Key, op.ScanLen, func(uint64, []byte) {})
					case ycsb.OpRMW:
						if err := s.Get(op.Key, buf); err != nil {
							b.Fatal(err)
						}
						buf[0]++
						if err := s.Put(op.Key, buf); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// --- Figure 12 ---

func BenchmarkFig12_Scaling(b *testing.B) {
	for _, nt := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads-%d", nt), func(b *testing.B) {
			d, err := daemon.New(pmem.New())
			if err != nil {
				b.Fatal(err)
			}
			clients := make([]*core.Client, nt)
			pools := make([]*core.Pool, nt)
			arrays := make([]pmem.Addr, nt)
			const per = 4096
			for i := range clients {
				clients[i] = core.ConnectLocal(d)
				ti, err := clients[i].RegisterType("bench.arr", 8, nil)
				if err != nil {
					b.Fatal(err)
				}
				pool, err := clients[i].CreatePool(fmt.Sprintf("p%d", i), 0)
				if err != nil {
					b.Fatal(err)
				}
				arr, err := pool.CreateRoot(ti.ID, per*8)
				if err != nil {
					b.Fatal(err)
				}
				pools[i], arrays[i] = pool, arr
			}
			defer func() {
				for _, c := range clients {
					c.Close()
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < nt; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						c, pool, arr := clients[w], pools[w], arrays[w]
						dev := c.Device()
						if err := c.Run(pool, func(tx *core.Tx) error {
							for e := 0; e < 256; e++ {
								at := arr + pmem.Addr(e*8)
								if err := tx.SetU64(at, dev.LoadU64(at)*2718281828+314159); err != nil {
									return err
								}
							}
							return nil
						}); err != nil {
							panic(err)
						}
					}(w)
				}
				wg.Wait()
			}
			b.ReportMetric(float64(nt*256), "cells/op")
		})
	}
}

// --- concurrent transaction scaling (multi-worker YCSB) ---

// BenchmarkYCSB_Concurrent sweeps worker counts over one latched
// kvstore on a single Puddles client: N goroutines, one cached log
// puddle each (paper §4.1), per-bucket latching in the store, and the
// sharded lock hierarchy underneath. The device models a PM fence
// stall (DIMM write-queue drain), so scaling measures how much of the
// persistence latency concurrent transactions overlap — with the old
// whole-client/whole-pool locks they could overlap none of it.
func BenchmarkYCSB_Concurrent(b *testing.B) {
	const (
		records      = 8192
		fenceLatency = 6 * time.Microsecond
	)
	for _, wname := range []string{"A", "G"} {
		w, err := ycsb.WorkloadByName(wname)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/%dworkers", wname, workers), func(b *testing.B) {
				lib, err := puddleslib.New()
				if err != nil {
					b.Fatal(err)
				}
				defer lib.Close()
				s, err := kvstore.New(lib, kvstore.Options{Buckets: 1 << 13, ValueSize: 100, LatchStripes: 512})
				if err != nil {
					b.Fatal(err)
				}
				value := make([]byte, 100)
				for _, k := range ycsb.LoadKeys(records) {
					if err := s.Put(k, value); err != nil {
						b.Fatal(err)
					}
				}
				lib.Device().SetFenceLatency(fenceLatency)
				opsPer := b.N / workers
				if opsPer == 0 {
					opsPer = 1
				}
				b.ResetTimer()
				res, err := ycsb.RunConcurrent(s, w, records, ycsb.ConcurrentOptions{
					Workers: workers, OpsPerWorker: opsPer, ValueSize: 100, Seed: 42,
				})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.OpsPerSec(), "ops/s")
			})
		}
	}
}

// --- read-heavy scaling (seqlock reads) ---

// BenchmarkYCSBRead_Concurrent sweeps worker counts over the
// read-heavy mixes (B: 95/5, C: read-only) on the optimistic seqlock
// read path. Writers still fence (the device models the PM stall), but
// reads take no lock at all; the reported fallbacks/op metric checks
// that they almost never degrade to the stripe latch.
func BenchmarkYCSBRead_Concurrent(b *testing.B) {
	const (
		records      = 8192
		fenceLatency = 6 * time.Microsecond
	)
	for _, wname := range []string{"B", "C"} {
		w, err := ycsb.WorkloadByName(wname)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/%dworkers", wname, workers), func(b *testing.B) {
				lib, err := puddleslib.New()
				if err != nil {
					b.Fatal(err)
				}
				defer lib.Close()
				s, err := kvstore.New(lib, kvstore.Options{
					Buckets: 1 << 13, ValueSize: 100, LatchStripes: 512,
				})
				if err != nil {
					b.Fatal(err)
				}
				value := make([]byte, 100)
				for _, k := range ycsb.LoadKeys(records) {
					if err := s.Put(k, value); err != nil {
						b.Fatal(err)
					}
				}
				lib.Device().SetFenceLatency(fenceLatency)
				opsPer := b.N / workers
				if opsPer == 0 {
					opsPer = 1
				}
				b.ResetTimer()
				res, err := ycsb.RunConcurrent(s, w, records, ycsb.ConcurrentOptions{
					Workers: workers, OpsPerWorker: opsPer, ValueSize: 100, Seed: 42,
				})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				rs := s.ReadStats()
				b.ReportMetric(res.OpsPerSec(), "ops/s")
				b.ReportMetric(float64(rs.Fallbacks)/float64(res.Ops), "fallbacks/op")
			})
		}
	}
}

// --- commit-path flush coalescing ---

// BenchmarkCommit_FlushCoalescing measures the write-combining commit
// engine: a transaction that undo-logs several ranges commits with one
// flush per distinct cacheline run, not one per range. The flushes/op
// and coalesced/op metrics come straight from pmem.Device.Stats, so
// regressions in the coalescer show up as counter shifts even when
// wall-clock noise hides them.
func BenchmarkCommit_FlushCoalescing(b *testing.B) {
	patterns := []struct {
		name string
		offs []pmem.Addr
	}{
		{"same-line", []pmem.Addr{0, 16, 32, 48}},
		{"adjacent-lines", []pmem.Addr{0, 64, 128, 192}},
		{"scattered-lines", []pmem.Addr{0, 1024, 2048, 3072}},
	}
	for _, p := range patterns {
		b.Run(p.name, func(b *testing.B) {
			d, err := daemon.New(pmem.New())
			if err != nil {
				b.Fatal(err)
			}
			c := core.ConnectLocal(d)
			defer c.Close()
			ti, err := c.RegisterType("fc.blob", 4096, nil)
			if err != nil {
				b.Fatal(err)
			}
			pool, err := c.CreatePool("fc", 0)
			if err != nil {
				b.Fatal(err)
			}
			root, err := pool.CreateRoot(ti.ID, 4096)
			if err != nil {
				b.Fatal(err)
			}
			dev := c.Device()
			before := dev.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Run(pool, func(tx *core.Tx) error {
					for _, off := range p.offs {
						if err := tx.SetU64(root+off, uint64(i)); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := dev.Stats()
			b.ReportMetric(float64(after.Flushes-before.Flushes)/float64(b.N), "flushes/op")
			b.ReportMetric(float64(after.CoalescedFlushes-before.CoalescedFlushes)/float64(b.N), "coalesced/op")
			b.ReportMetric(float64(after.Fences-before.Fences)/float64(b.N), "fences/op")
		})
	}
}

// --- Figure 14 ---

func BenchmarkFig14_Aggregation(b *testing.B) {
	const nodes, vars = 4, 100
	b.Run("puddles", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			home, err := sensornet.NewNode("home")
			if err != nil {
				b.Fatal(err)
			}
			pool, err := home.BuildState(vars)
			if err != nil {
				b.Fatal(err)
			}
			blob, _ := sensornet.Distribute(pool)
			uploads := make([][]byte, nodes)
			for n := 0; n < nodes; n++ {
				sn, _ := sensornet.NewNode("s")
				uploads[n], err = sn.SensorWork(blob, int64(n))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			if _, _, err := home.AggregatePuddles(uploads); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pmdk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			nw, err := sensornet.NewPMDKNetwork(vars)
			if err != nil {
				b.Fatal(err)
			}
			uploads := make([][]byte, nodes)
			for n := 0; n < nodes; n++ {
				uploads[n], err = nw.SensorWorkPMDK(n, int64(n))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			if _, _, err := nw.AggregatePMDK(uploads); err != nil {
				b.Fatal(err)
			}
		}
	})
}
