package pmem

import (
	"sync"
	"testing"
)

func TestDirtyMapNotesStores(t *testing.T) {
	d := New()
	r := Range{Start: 1 << 30, End: 1<<30 + 8*TrackChunkSize}
	m := d.TrackDirty(r)
	defer d.Untrack(m)

	if m.Count() != 0 {
		t.Fatalf("fresh map has %d dirty chunks", m.Count())
	}
	// One store inside chunk 2.
	d.StoreU64(r.Start+2*TrackChunkSize+64, 1)
	// One store spanning the chunk 4/5 boundary.
	d.Store(r.Start+5*TrackChunkSize-4, make([]byte, 8))
	// One store outside the tracked range.
	d.StoreU64(r.End+TrackChunkSize, 1)

	got := m.CollectClear()
	want := []Range{
		{Start: r.Start + 2*TrackChunkSize, End: r.Start + 3*TrackChunkSize},
		{Start: r.Start + 4*TrackChunkSize, End: r.Start + 6*TrackChunkSize},
	}
	if len(got) != len(want) {
		t.Fatalf("collected %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range %d: %v, want %v", i, got[i], want[i])
		}
	}
	// The drain cleared the bits.
	if n := m.Count(); n != 0 {
		t.Fatalf("%d chunks still dirty after CollectClear", n)
	}
	if got := m.CollectClear(); len(got) != 0 {
		t.Fatalf("second collect returned %v", got)
	}
}

func TestDirtyMapMarkAllAndTailClamp(t *testing.T) {
	d := New()
	// A range that is not a whole number of chunks: the tail chunk must
	// be clamped to the range end.
	r := Range{Start: 1 << 30, End: 1<<30 + 3*TrackChunkSize + 100}
	m := d.TrackDirty(r)
	defer d.Untrack(m)
	m.MarkAll()
	got := m.CollectClear()
	if len(got) != 1 || got[0].Start != r.Start || got[0].End != r.End {
		t.Fatalf("MarkAll collect = %v, want [%v]", got, r)
	}
}

func TestDirtyMapConcurrentWritersNeverLoseAWrite(t *testing.T) {
	d := New()
	r := Range{Start: 1 << 30, End: 1<<30 + 64*TrackChunkSize}
	m := d.TrackDirty(r)
	defer d.Untrack(m)

	// Writers dirty chunks while a collector drains; every written
	// chunk must appear in SOME collection (racing writes land in the
	// next one, never vanish).
	var wg sync.WaitGroup
	const writers, rounds = 4, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := (w*rounds + i) % 64
				d.StoreU64(r.Start+Addr(c)*TrackChunkSize, uint64(i))
			}
		}(w)
	}
	seen := make(map[Addr]bool)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	collect := func() {
		for _, cr := range m.CollectClear() {
			for a := cr.Start; a < cr.End; a += TrackChunkSize {
				seen[a] = true
			}
		}
	}
	for {
		collect()
		select {
		case <-done:
			collect() // final drain after all writers stopped
			for c := 0; c < 64; c++ {
				if a := r.Start + Addr(c)*TrackChunkSize; !seen[a] {
					t.Fatalf("chunk %d written but never collected", c)
				}
			}
			return
		default:
		}
	}
}

func TestQuiesceArmCounter(t *testing.T) {
	d := New()
	if d.QuiesceArmed() {
		t.Fatal("fresh device armed")
	}
	d.ArmQuiesce()
	d.ArmQuiesce()
	d.DisarmQuiesce()
	if !d.QuiesceArmed() {
		t.Fatal("nested arm lost")
	}
	d.DisarmQuiesce()
	if d.QuiesceArmed() {
		t.Fatal("disarm did not clear")
	}
}

func TestUntrackDisarmsStorePath(t *testing.T) {
	d := New()
	r := Range{Start: 1 << 30, End: 1<<30 + TrackChunkSize}
	m := d.TrackDirty(r)
	d.Untrack(m)
	d.StoreU64(r.Start, 1)
	if n := m.Count(); n != 0 {
		t.Fatalf("store after Untrack still tracked (%d chunks)", n)
	}
}
