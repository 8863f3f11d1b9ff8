package pmem

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func TestFastStoreLoadRoundTrip(t *testing.T) {
	d := New()
	data := []byte("hello, puddles")
	d.Store(0x1000, data)
	got := make([]byte, len(data))
	d.Load(0x1000, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("Load = %q, want %q", got, data)
	}
}

func TestUnbackedReadsZero(t *testing.T) {
	d := New()
	buf := []byte{1, 2, 3, 4}
	d.Load(0x7f_0000_0000, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("buf[%d] = %d, want 0", i, b)
		}
	}
}

func TestStoreCrossesChunkBoundary(t *testing.T) {
	d := New()
	addr := Addr(ChunkSize - 5)
	data := []byte("0123456789")
	d.Store(addr, data)
	got := make([]byte, len(data))
	d.Load(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("cross-chunk Load = %q, want %q", got, data)
	}
}

func TestU64RoundTrip(t *testing.T) {
	d := New()
	d.StoreU64(0x2000, 0xdeadbeefcafef00d)
	if v := d.LoadU64(0x2000); v != 0xdeadbeefcafef00d {
		t.Fatalf("LoadU64 = %#x", v)
	}
	// Unaligned, chunk-straddling.
	a := Addr(ChunkSize - 3)
	d.StoreU64(a, 42)
	if v := d.LoadU64(a); v != 42 {
		t.Fatalf("straddling LoadU64 = %d, want 42", v)
	}
}

func TestU32U16U8(t *testing.T) {
	d := New()
	d.StoreU32(0x100, 0xabcd1234)
	if v := d.LoadU32(0x100); v != 0xabcd1234 {
		t.Fatalf("LoadU32 = %#x", v)
	}
	d.StoreU16(0x200, 0xbeef)
	if v := d.LoadU16(0x200); v != 0xbeef {
		t.Fatalf("LoadU16 = %#x", v)
	}
	d.StoreU8(0x300, 0x7f)
	if v := d.LoadU8(0x300); v != 0x7f {
		t.Fatalf("LoadU8 = %#x", v)
	}
}

func TestZeroAndCopy(t *testing.T) {
	d := New()
	src := make([]byte, 10000)
	for i := range src {
		src[i] = byte(i)
	}
	d.Store(0x1_0000, src)
	d.Copy(0x9_0000, 0x1_0000, len(src))
	got := make([]byte, len(src))
	d.Load(0x9_0000, got)
	if !bytes.Equal(got, src) {
		t.Fatal("Copy did not reproduce source bytes")
	}
	d.Zero(0x1_0000, len(src))
	d.Load(0x1_0000, got)
	for i, b := range got {
		if b != 0 {
			t.Fatalf("after Zero, byte %d = %d", i, b)
		}
	}
}

func TestChaosUnfencedWriteIsVolatile(t *testing.T) {
	d := NewChaos(1)
	d.StoreU64(0x1000, 99)
	if v := d.LoadU64(0x1000); v != 99 {
		t.Fatalf("read-your-writes failed: %d", v)
	}
	d.DropVolatile()
	if v := d.LoadU64(0x1000); v != 0 {
		t.Fatalf("unfenced write survived adversarial crash: %d", v)
	}
}

func TestChaosFlushWithoutFenceIsVolatileOnDrop(t *testing.T) {
	// DropVolatile models ADR: flushed (pending) lines persist, dirty
	// lines do not.
	d := NewChaos(1)
	d.StoreU64(0x1000, 7)
	d.StoreU64(0x2000, 8)
	d.Flush(0x1000, 8)
	d.DropVolatile()
	if v := d.LoadU64(0x1000); v != 7 {
		t.Fatalf("flushed line lost: %d", v)
	}
	if v := d.LoadU64(0x2000); v != 0 {
		t.Fatalf("dirty line survived: %d", v)
	}
}

func TestChaosPersistIsDurable(t *testing.T) {
	d := NewChaos(1)
	d.StoreU64(0x1000, 123)
	d.Persist(0x1000, 8)
	d.CrashNow()
	if v := d.LoadU64(0x1000); v != 123 {
		t.Fatalf("persisted write lost after crash: %d", v)
	}
}

func TestChaosRedirtyUnstagesLine(t *testing.T) {
	d := NewChaos(1)
	d.StoreU64(0x1000, 1)
	d.Flush(0x1000, 8)
	d.StoreU64(0x1000, 2) // re-dirty before fence
	d.Fence()
	// The line went back to dirty, so the fence persisted nothing.
	d.DropVolatile()
	if v := d.LoadU64(0x1000); v != 0 {
		t.Fatalf("re-dirtied line persisted: %d", v)
	}
}

func TestChaosCrashRandomEviction(t *testing.T) {
	// Any subset of dirty lines may persist; whatever persists must hold
	// the written value, everything else must be zero.
	d := NewChaos(42)
	const n = 64
	for i := 0; i < n; i++ {
		d.StoreU64(Addr(0x1000+i*LineSize), uint64(i)+1)
	}
	d.CrashNow()
	kept := 0
	for i := 0; i < n; i++ {
		v := d.LoadU64(Addr(0x1000 + i*LineSize))
		switch v {
		case 0:
		case uint64(i) + 1:
			kept++
		default:
			t.Fatalf("line %d holds torn value %d", i, v)
		}
	}
	if kept == 0 || kept == n {
		t.Fatalf("expected a strict subset of lines to survive, kept %d/%d", kept, n)
	}
}

func TestChaosCrashAtEvent(t *testing.T) {
	d := NewChaos(7)
	d.CrashAtEvent(3)
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if !IsCrash(r) {
					panic(r)
				}
				crashed = true
			}
		}()
		for i := 0; i < 10; i++ {
			d.StoreU64(Addr(0x1000+8*i), uint64(i))
		}
	}()
	if !crashed {
		t.Fatal("crash point did not fire")
	}
	if got := d.Events(); got != 3 {
		t.Fatalf("crash fired at event %d, want 3", got)
	}
	if d.VolatileLines() != 0 {
		t.Fatal("volatile lines survived the crash")
	}
}

func TestChaosLineGranularity(t *testing.T) {
	// Two values on the same cacheline: flushing either address stages
	// the whole line.
	d := NewChaos(3)
	d.StoreU64(0x1000, 5)
	d.StoreU64(0x1008, 6)
	d.Persist(0x1000, 8)
	d.DropVolatile()
	if v := d.LoadU64(0x1008); v != 6 {
		t.Fatalf("same-line neighbour not persisted: %d", v)
	}
}

func TestChaosFenceWalksStagedLines(t *testing.T) {
	// Fence persists the lines Flush staged, found through the staged
	// list rather than a scan of the overlay; the observable semantics
	// are those of the scan.
	d := NewChaos(3)
	a, b, c := Addr(0x1000), Addr(0x2000), Addr(0x3000)

	// a: staged, then stored to again: the fence must leave it volatile.
	d.StoreU64(a, 1)
	d.Flush(a, 8)
	d.StoreU64(a, 2)
	// b: flushed twice: persists once, and the second listing is inert.
	d.StoreU64(b, 7)
	d.Flush(b, 8)
	d.Flush(b, 8)
	// c: never flushed.
	d.StoreU64(c, 9)
	if n := d.VolatileLines(); n != 3 {
		t.Fatalf("VolatileLines before the fence = %d, want 3", n)
	}
	d.Fence()
	if n := d.VolatileLines(); n != 2 {
		t.Fatalf("VolatileLines after the fence = %d, want 2 (a re-dirtied, c unflushed)", n)
	}
	// a re-flushed after the fence is staged again and persists now.
	d.Flush(a, 8)
	d.Fence()
	if n := d.VolatileLines(); n != 1 {
		t.Fatalf("VolatileLines after the second fence = %d, want 1", n)
	}
	d.DropVolatile()
	if va, vb, vc := d.LoadU64(a), d.LoadU64(b), d.LoadU64(c); va != 2 || vb != 7 || vc != 0 {
		t.Fatalf("after the crash a=%d b=%d c=%d, want 2 7 0", va, vb, vc)
	}

	// A crash empties the staged list with the overlay: a line flushed
	// before it must not be persisted by a fence after it.
	d.StoreU64(a, 3)
	d.Flush(a, 8)
	d.StoreU64(b, 8)
	d.DropVolatile() // a was pending: durable. b was dirty: lost.
	d.StoreU64(a, 4) // volatile again, same address as the stale listing
	d.Fence()
	d.DropVolatile()
	if va, vb := d.LoadU64(a), d.LoadU64(b); va != 3 || vb != 7 {
		t.Fatalf("after crash, store, fence, crash: a=%d b=%d, want 3 7", va, vb)
	}
}

func TestChaosCrashOutcomesWithStagedLines(t *testing.T) {
	// CrashNow resolves lines as it did before Fence had a staged list:
	// flushed-not-fenced lines always survive, dirty lines by the coin.
	d := NewChaos(99)
	for i := 0; i < 16; i++ {
		d.StoreU64(Addr(0x1000+i*64), uint64(i)+1)
		if i%4 == 0 {
			d.Flush(Addr(0x1000+i*64), 8)
		}
	}
	d.CrashNow()
	kept := 0
	for i := 0; i < 16; i++ {
		v := d.LoadU64(Addr(0x1000 + i*64))
		if i%4 == 0 && v != uint64(i)+1 {
			t.Fatalf("flushed line %d lost in the crash", i)
		}
		if v != 0 {
			kept++
		}
	}
	if kept == 16 || kept == 4 {
		t.Fatalf("dirty lines all kept or all lost (%d of 16 survive): not the coin", kept)
	}
	if n := d.VolatileLines(); n != 0 {
		t.Fatalf("%d volatile lines after the crash", n)
	}
}

func TestChaosCrashAtEventDropping(t *testing.T) {
	d := NewChaos(5)
	d.CrashAtEventDropping(d.Events() + 3)
	func() {
		defer func() {
			if r := recover(); !IsCrash(r) {
				t.Fatalf("recovered %v, want an injected crash", r)
			}
		}()
		d.StoreU64(0x1000, 1) // event 1
		d.Flush(0x1000, 8)    // event 2: pending, survives
		d.StoreU64(0x2000, 2) // event 3: dirty, must be lost every time
		t.Fatal("crash point did not fire")
	}()
	if a, b := d.LoadU64(0x1000), d.LoadU64(0x2000); a != 1 || b != 0 {
		t.Fatalf("after the dropping crash: %d %d, want 1 0", a, b)
	}
}

func TestChaosLoadMergesOverlay(t *testing.T) {
	d := NewChaos(3)
	base := Addr(0x4000)
	durable := make([]byte, 256)
	for i := range durable {
		durable[i] = 0xAA
	}
	d.Store(base, durable)
	d.Persist(base, len(durable))
	// Volatile write in the middle.
	d.Store(base+100, []byte{1, 2, 3})
	got := make([]byte, 256)
	d.Load(base, got)
	want := append([]byte(nil), durable...)
	copy(want[100:], []byte{1, 2, 3})
	if !bytes.Equal(got, want) {
		t.Fatal("chaos Load did not merge overlay with durable data")
	}
}

func TestFaultHook(t *testing.T) {
	d := New()
	target := Range{0x10000, 0x20000}
	var faults []Addr
	d.ArmFaultHook(func(a Addr) {
		faults = append(faults, a)
		d.RemoveFaultRange(a)
		d.StoreU64(0x10040, 777) // handler populates the page
	})
	d.AddFaultRange(target)

	if v := d.LoadU64(0x10040); v != 777 {
		t.Fatalf("post-fault read = %d, want 777", v)
	}
	if len(faults) != 1 || faults[0] != 0x10000 {
		t.Fatalf("faults = %v, want one fault at 0x10000", faults)
	}
	// Second access: no further fault.
	d.LoadU64(0x10040)
	if len(faults) != 1 {
		t.Fatalf("range faulted twice: %v", faults)
	}
}

func TestFaultHookNonOverlappingAccess(t *testing.T) {
	d := New()
	fired := false
	d.ArmFaultHook(func(a Addr) { fired = true; d.RemoveFaultRange(a) })
	d.AddFaultRange(Range{0x50000, 0x60000})
	d.LoadU64(0x40000)
	if fired {
		t.Fatal("fault fired for a non-overlapping access")
	}
	if !d.RemoveFaultRange(0x50000) {
		t.Fatal("armed range disappeared")
	}
}

func TestRangeOps(t *testing.T) {
	r := Range{100, 200}
	if !r.Contains(100) || r.Contains(200) || !r.Contains(199) {
		t.Fatal("Contains is wrong at boundaries")
	}
	if !r.Overlaps(Range{150, 250}) || r.Overlaps(Range{200, 300}) || !r.Overlaps(Range{0, 101}) {
		t.Fatal("Overlaps is wrong")
	}
	if r.Size() != 100 {
		t.Fatalf("Size = %d", r.Size())
	}
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	d := New()
	rng := rand.New(rand.NewSource(5))
	type rec struct {
		addr Addr
		data []byte
	}
	var recs []rec
	for i := 0; i < 50; i++ {
		addr := Addr(rng.Int63n(1 << 30))
		data := make([]byte, 1+rng.Intn(300))
		rng.Read(data)
		d.Store(addr, data)
		recs = append(recs, rec{addr, data})
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	d2 := New()
	if err := d2.Restore(&buf); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for _, r := range recs {
		got := make([]byte, len(r.data))
		d2.Load(r.addr, got)
		if !bytes.Equal(got, r.data) {
			t.Fatalf("restored data at %#x differs", uint64(r.addr))
		}
	}
}

func TestSaveRestoreFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dev.img")
	d := New()
	d.StoreU64(0x1234, 55)
	if err := d.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	d2 := New()
	if err := d2.RestoreFile(path); err != nil {
		t.Fatalf("RestoreFile: %v", err)
	}
	if v := d2.LoadU64(0x1234); v != 55 {
		t.Fatalf("restored value = %d", v)
	}
	// Missing file is first boot, not an error.
	d3 := New()
	if err := d3.RestoreFile(filepath.Join(dir, "missing.img")); err != nil {
		t.Fatalf("RestoreFile(missing) = %v", err)
	}
}

func TestRestoreRejectsCorruptImage(t *testing.T) {
	d := New()
	d.StoreU64(0x1000, 99)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	img[len(img)/2] ^= 0xff // corrupt a payload byte
	if err := New().Restore(bytes.NewReader(img)); err == nil {
		t.Fatal("Restore accepted a corrupt image")
	}
}

func TestConcurrentDisjointStores(t *testing.T) {
	d := New()
	const goroutines = 8
	const per = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := Addr(g) * 1 << 20
			for i := 0; i < per; i++ {
				d.StoreU64(base+Addr(i*8), uint64(g*per+i))
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		base := Addr(g) * 1 << 20
		for i := 0; i < per; i++ {
			if v := d.LoadU64(base + Addr(i*8)); v != uint64(g*per+i) {
				t.Fatalf("g%d[%d] = %d", g, i, v)
			}
		}
	}
}

func TestQuickStoreLoad(t *testing.T) {
	d := New()
	f := func(addrSeed uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := Addr(addrSeed) % (1 << 32)
		d.Store(addr, data)
		got := make([]byte, len(data))
		d.Load(addr, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickChaosPersistedDataSurvives(t *testing.T) {
	f := func(seed int64, vals []uint64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 64 {
			vals = vals[:64]
		}
		d := NewChaos(seed)
		for i, v := range vals {
			d.StoreU64(Addr(0x1000+i*8), v)
		}
		d.Persist(0x1000, len(vals)*8)
		d.CrashNow()
		for i, v := range vals {
			if d.LoadU64(Addr(0x1000+i*8)) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	d := New()
	d.Flush(0, 64)
	d.Flush(64, 64)
	d.Fence()
	s := d.Stats()
	if s.Flushes != 2 || s.Fences != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestModeString(t *testing.T) {
	if Fast.String() != "fast" || Chaos.String() != "chaos" {
		t.Fatal("Mode.String is wrong")
	}
	if New().Mode() != Fast || NewChaos(0).Mode() != Chaos {
		t.Fatal("constructor modes are wrong")
	}
}
