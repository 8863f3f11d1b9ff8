package alloc

import (
	"math/rand"
	"sync"
	"testing"

	"puddles/internal/pmem"
	"puddles/internal/puddle"
	"puddles/internal/uid"
)

// stressHeap drives one heap from `workers` goroutines doing mixed
// small/large alloc/free with the Direct mutator, then checks the
// heap validates and LiveObjects is exact. Run under -race this is
// the concurrency proof for the per-heap mutex.
func stressHeap(t *testing.T, h *Heap, workers, iters int) uint64 {
	t.Helper()
	m := Direct{Dev: h.P.Dev}
	kept := make([]uint64, workers) // per-worker surviving allocations
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			var mine []pmem.Addr
			for i := 0; i < iters; i++ {
				switch {
				case len(mine) > 0 && rng.Intn(3) == 0:
					// Free a random object this worker owns.
					j := rng.Intn(len(mine))
					if err := h.Free(m, mine[j]); err != nil {
						t.Errorf("worker %d: free: %v", w, err)
						return
					}
					mine = append(mine[:j], mine[j+1:]...)
				default:
					size := uint32(8 + rng.Intn(64))
					if rng.Intn(8) == 0 {
						size = uint32(1024 + rng.Intn(4096)) // large path
					}
					a, err := h.Alloc(m, tNode, size)
					if err != nil {
						t.Errorf("worker %d: alloc %d: %v", w, size, err)
						return
					}
					mine = append(mine, a)
				}
			}
			kept[w] = uint64(len(mine))
		}(w)
	}
	wg.Wait()
	var want uint64
	for _, n := range kept {
		want += n
	}
	return want
}

func TestConcurrentAllocFreeOneHeap(t *testing.T) {
	h := newHeap(t, 4<<20)
	want := stressHeap(t, h, 8, 300)
	if t.Failed() {
		return
	}
	if got := h.LiveObjects(); got != want {
		t.Fatalf("LiveObjects = %d, want exactly %d", got, want)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("heap invalid after concurrent stress: %v", err)
	}
}

func TestConcurrentAllocFreeSiblingHeaps(t *testing.T) {
	// Two heaps on one device, each hammered by its own worker pool:
	// sibling heaps in a pool must never serialize (or interfere)
	// through shared state.
	dev := pmem.New()
	mk := func(base pmem.Addr) *Heap {
		p, err := puddle.Format(dev, base, 4<<20, uid.New(), puddle.KindData, uid.Nil)
		if err != nil {
			t.Fatal(err)
		}
		Format(p, Direct{Dev: dev})
		return NewHeap(p)
	}
	h1 := mk(0x100000)
	h2 := mk(0x100000 + 8<<20)
	var wg sync.WaitGroup
	want := make([]uint64, 2)
	for i, h := range []*Heap{h1, h2} {
		wg.Add(1)
		go func(i int, h *Heap) {
			defer wg.Done()
			want[i] = stressHeap(t, h, 4, 300)
		}(i, h)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, h := range []*Heap{h1, h2} {
		if got := h.LiveObjects(); got != want[i] {
			t.Fatalf("heap %d: LiveObjects = %d, want exactly %d", i, got, want[i])
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("heap %d invalid after concurrent stress: %v", i, err)
		}
	}
}

func TestLeaseExcludes(t *testing.T) {
	h := newHeap(t, puddle.DefaultSize)
	h.Lease()
	if h.TryLease() {
		t.Fatal("TryLease succeeded while leased")
	}
	done := make(chan struct{})
	go func() {
		h.Lease() // blocks until the holder releases
		h.Unlease()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("blocking Lease acquired while held")
	default:
	}
	h.Unlease()
	<-done
	if !h.TryLease() {
		t.Fatal("TryLease failed on a free heap")
	}
	h.Unlease()
}
