package pmem

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// storeZeros is the reference Zero: a Store of zeros, one page at a
// time.
func storeZeros(d *Device, addr Addr, n int) {
	var zeros [PageSize]byte
	for n > 0 {
		k := min(n, PageSize)
		d.Store(addr, zeros[:k])
		addr += Addr(k)
		n -= k
	}
}

// fillNonzero stores random bytes, none of them zero, over r.
func fillNonzero(d *Device, rng *rand.Rand, r Range) {
	buf := make([]byte, r.Size())
	for i := range buf {
		buf[i] = byte(1 + rng.Intn(255))
	}
	d.Store(r.Start, buf)
}

func TestZeroMatchesStoreOfZeros(t *testing.T) {
	const base Addr = 0x40000
	cases := []struct {
		name   string
		filled []Range // backed before the Zero
		addr   Addr
		n      int
	}{
		{"unaligned start and end", []Range{{base, base + 3*PageSize}}, base + 3, 2*PageSize + 5},
		{"sub-word inside one word", []Range{{base, base + 64}}, base + 2, 3},
		{"sub-word head only", []Range{{base, base + 64}}, base + 5, 3},
		{"sub-word tail only", []Range{{base, base + 64}}, base + 8, 5},
		{"crosses a chunk boundary", []Range{{base + ChunkSize - PageSize, base + ChunkSize + PageSize}}, base + ChunkSize - 100, 301},
		{"partly nonzero", []Range{{base + 16, base + 40}, {base + 1000, base + 1001}, {base + PageSize + 8, base + PageSize + 24}}, base, 2 * PageSize},
		{"backed chunk then unbacked chunk", []Range{{base + ChunkSize - 64, base + ChunkSize}}, base + ChunkSize - 64, 2 * PageSize},
		{"never backed", nil, base + 5*ChunkSize + 7, 2*ChunkSize + 9},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			zeroed, stored := New(), New()
			for _, d := range []*Device{zeroed, stored} {
				rng := rand.New(rand.NewSource(int64(i)))
				for _, r := range tc.filled {
					fillNonzero(d, rng, r)
				}
			}
			zeroed.Zero(tc.addr, tc.n)
			storeZeros(stored, tc.addr, tc.n)

			// Compare a window a line wider than the range on each side.
			lo, hi := tc.addr-LineSize, tc.addr+Addr(tc.n)+LineSize
			got, want := make([]byte, hi-lo), make([]byte, hi-lo)
			zeroed.Load(lo, got)
			stored.Load(lo, want)
			if !bytes.Equal(got, want) {
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("byte %#x: Zero left %#x, Store(zeros) %#x", uint64(lo)+uint64(j), got[j], want[j])
					}
				}
			}
			if tc.filled == nil {
				for a := tc.addr &^ chunkMask; a < tc.addr+Addr(tc.n); a += ChunkSize {
					if zeroed.chunkFor(a, false) != nil {
						t.Fatalf("Zero backed the never-written chunk at %#x", uint64(a))
					}
				}
			}
		})
	}
}

// TestZeroNotesDirtAndFaults: a Zero that stores nothing, because the
// range was never backed, still shows migration dirt tracking and the
// fault hook the same ranges a Store of zeros does.
func TestZeroNotesDirtAndFaults(t *testing.T) {
	const addr, n = Addr(0x30000 + 100), 3 * ChunkSize
	tracked := Range{0x20000, 0x80000}
	var ranges [2][]Range
	for i, zero := range []func(*Device, Addr, int){(*Device).Zero, storeZeros} {
		d := New()
		m := d.TrackDirty(tracked)
		zero(d, addr, n)
		ranges[i] = m.CollectClear()
		d.Untrack(m)
	}
	want := []Range{{0x30000, 0x70000}}
	if !reflect.DeepEqual(ranges[0], want) || !reflect.DeepEqual(ranges[1], want) {
		t.Fatalf("dirty ranges: Zero %v, Store(zeros) %v, want %v", ranges[0], ranges[1], want)
	}

	d := New()
	var faults []Addr
	d.ArmFaultHook(func(a Addr) {
		faults = append(faults, a)
		d.RemoveFaultRange(a)
	})
	d.AddFaultRange(Range{addr + ChunkSize, addr + ChunkSize + 8})
	d.Zero(addr, n)
	if len(faults) != 1 || faults[0] != addr+ChunkSize {
		t.Fatalf("faults = %v, want one at %#x", faults, uint64(addr+ChunkSize))
	}
}

// TestChaosZeroMatchesStoreOfZeros: chaos-mode Zero is a Store of
// zeros, so a crash sweep over a scenario that zeroes a range sees the
// same persist events and the same surviving bytes either way.
func TestChaosZeroMatchesStoreOfZeros(t *testing.T) {
	const base Addr = 0x10000
	const window = 4 * PageSize
	scenario := func(d *Device, zero func(*Device, Addr, int)) {
		rng := rand.New(rand.NewSource(3))
		fillNonzero(d, rng, Range{base, base + 2*PageSize})
		d.Persist(base, 2*PageSize)
		fillNonzero(d, rng, Range{base + 2*PageSize, base + 2*PageSize + 200}) // volatile
		zero(d, base+3, 2*PageSize+150)
		d.Flush(base, PageSize)
		d.Fence()
		d.StoreU64(base+8, 9)
	}
	run := func(zero func(*Device, Addr, int), crashAt int64, dropping bool) (events int64, crashed bool, image []byte) {
		d := NewChaos(11)
		switch {
		case crashAt > 0 && dropping:
			d.CrashAtEventDropping(crashAt)
		case crashAt > 0:
			d.CrashAtEvent(crashAt)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					if !IsCrash(r) {
						panic(r)
					}
					crashed = true
				}
			}()
			scenario(d, zero)
		}()
		image = make([]byte, window)
		d.Load(base, image)
		return d.Events(), crashed, image
	}
	total, _, _ := run((*Device).Zero, 0, false)
	if ref, _, _ := run(storeZeros, 0, false); total != ref {
		t.Fatalf("persist events: Zero %d, Store(zeros) %d", total, ref)
	}
	for k := int64(1); k <= total+1; k++ {
		for _, dropping := range []bool{false, true} {
			ze, zc, zimg := run((*Device).Zero, k, dropping)
			se, sc, simg := run(storeZeros, k, dropping)
			if ze != se || zc != sc {
				t.Fatalf("crash at event %d (dropping %v): Zero stopped at %d (crashed %v), Store(zeros) at %d (crashed %v)", k, dropping, ze, zc, se, sc)
			}
			if want := k <= total; zc != want {
				t.Fatalf("crash at event %d of %d: crashed = %v", k, total, zc)
			}
			if dropping && !bytes.Equal(zimg, simg) {
				t.Fatalf("crash at event %d: surviving bytes differ", k)
			}
		}
	}
}

// TestZeroRacesWordAccess runs Zero against word loads and stores on
// the same words. Seqlock readers rely on every word access being
// atomic: a word may read as zero, as one writer's value, or as that
// value with some bytes cleared by an unaligned Zero, but never as a
// mix of two writers' bytes. Run it under -race.
func TestZeroRacesWordAccess(t *testing.T) {
	const base Addr = 0x50000
	const words = 64
	d := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() { // writer: every byte of a word carries the same value
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b := uint64(1 + i%255)
			d.StoreU64(base+Addr(8*(i%words)), b*0x0101010101010101)
		}
	}()
	go func() { // reader
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := d.LoadU64(base + Addr(8*(i%words)))
			var seen byte
			for ; v != 0; v >>= 8 {
				if b := byte(v); b != 0 {
					if seen != 0 && b != seen {
						t.Errorf("word %d tore: bytes %#x and %#x", i%words, seen, b)
						return
					}
					seen = b
				}
			}
		}
	}()
	go func() { // zeroer: aligned, unaligned and sub-word ranges
		defer wg.Done()
		for i := 0; i < 20000; i++ {
			switch i % 3 {
			case 0:
				d.Zero(base, 8*words)
			case 1:
				d.Zero(base+3, 8*words-7)
			default:
				d.Zero(base+Addr(8*(i%words))+2, 4)
			}
		}
		close(stop)
	}()
	wg.Wait()
}
