package addrspace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"puddles/internal/pmem"
)

const mib = 1 << 20

func TestReserveBasic(t *testing.T) {
	m := NewManager()
	r1, err := m.Reserve(2*mib, "p1")
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if r1.Start < Base || r1.End > End {
		t.Fatalf("reservation %v outside global space", r1)
	}
	r2, err := m.Reserve(2*mib, "p2")
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if r1.Overlaps(r2) {
		t.Fatalf("reservations overlap: %v %v", r1, r2)
	}
}

func TestReserveAtAndConflict(t *testing.T) {
	m := NewManager()
	addr := Base + 10*mib
	if _, err := m.ReserveAt(addr, 2*mib, "a"); err != nil {
		t.Fatalf("ReserveAt: %v", err)
	}
	if _, err := m.ReserveAt(addr+mib, 2*mib, "b"); err != ErrConflict {
		t.Fatalf("overlapping ReserveAt = %v, want ErrConflict", err)
	}
	if _, err := m.ReserveAt(addr+2*mib, 2*mib, "c"); err != nil {
		t.Fatalf("adjacent ReserveAt: %v", err)
	}
}

func TestReserveAtValidation(t *testing.T) {
	m := NewManager()
	if _, err := m.ReserveAt(Base+1, pmem.PageSize, "x"); err != ErrNotAligned {
		t.Fatalf("unaligned addr = %v", err)
	}
	if _, err := m.ReserveAt(Base, 100, "x"); err != ErrNotAligned {
		t.Fatalf("unaligned size = %v", err)
	}
	if _, err := m.ReserveAt(Base-pmem.PageSize, pmem.PageSize, "x"); err != ErrOutside {
		t.Fatalf("below base = %v", err)
	}
	if _, err := m.ReserveAt(End-pmem.PageSize, 2*pmem.PageSize, "x"); err != ErrOutside {
		t.Fatalf("past end = %v", err)
	}
}

func TestReleaseAndReuse(t *testing.T) {
	m := NewManager()
	r, err := m.ReserveAt(Base, 4*mib, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(r.Start); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := m.Release(r.Start); err != ErrNotFound {
		t.Fatalf("double Release = %v, want ErrNotFound", err)
	}
	if _, err := m.ReserveAt(Base, 4*mib, "b"); err != nil {
		t.Fatalf("reuse after release: %v", err)
	}
}

func TestLookup(t *testing.T) {
	m := NewManager()
	r, _ := m.ReserveAt(Base+8*mib, 2*mib, "owner-1")
	if res, ok := m.Lookup(r.Start + mib); !ok || res.Owner != "owner-1" {
		t.Fatalf("Lookup mid-range = %+v, %v", res, ok)
	}
	if res, ok := m.Lookup(r.Start); !ok || res.Owner != "owner-1" {
		t.Fatalf("Lookup start = %+v, %v", res, ok)
	}
	if _, ok := m.Lookup(r.End); ok {
		t.Fatal("Lookup(end) should miss (half-open)")
	}
	if _, ok := m.Lookup(Base); ok {
		t.Fatal("Lookup on empty region should miss")
	}
}

func TestReservedQuery(t *testing.T) {
	m := NewManager()
	m.ReserveAt(Base+4*mib, 2*mib, "a")
	if !m.Reserved(Base+5*mib, pmem.PageSize) {
		t.Fatal("Reserved missed an overlapping byte")
	}
	if m.Reserved(Base, mib) {
		t.Fatal("Reserved false-positive")
	}
}

// TestGapFilling pins first fit from the base: after a Release,
// Reserve hands out the lowest gap that holds the request — a freed
// range is reused before any never-touched address — on the global
// space and on a staging-area manager alike.
func TestGapFilling(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *Manager
		base pmem.Addr
	}{
		{"global", NewManager(), Base},
		{"staging", NewManagerRange(End-64*mib, 64*mib), End - 64*mib},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			var r [4]pmem.Range
			for i := range r {
				var err error
				if r[i], err = m.Reserve(2*mib, "x"); err != nil {
					t.Fatal(err)
				}
				if want := tc.base + pmem.Addr(i*2*mib); r[i].Start != want {
					t.Fatalf("reservation %d at %#x, want %#x", i, r[i].Start, want)
				}
			}
			// Free the second and third: a 4 MiB gap above a 2 MiB one.
			for _, i := range []int{1, 2} {
				if err := m.Release(r[i].Start); err != nil {
					t.Fatal(err)
				}
			}
			// Too big for the gap: lands past the last reservation.
			big, err := m.Reserve(6*mib, "big")
			if err != nil || big.Start != r[3].End {
				t.Fatalf("6 MiB Reserve = %v, %v; want it at %#x", big, err, r[3].End)
			}
			// Fits: the lowest address of the gap, twice over.
			for _, want := range []pmem.Addr{r[1].Start, r[2].Start} {
				got, err := m.Reserve(2*mib, "reuse")
				if err != nil || got.Start != want {
					t.Fatalf("Reserve after Release = %v, %v; want %#x", got, err, want)
				}
			}
			// Freeing the lowest reservation makes it the next one again.
			if err := m.Release(r[0].Start); err != nil {
				t.Fatal(err)
			}
			if got, err := m.Reserve(pmem.PageSize, "low"); err != nil || got.Start != tc.base {
				t.Fatalf("Reserve after releasing the lowest = %v, %v; want %#x", got, err, tc.base)
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestExhaustion(t *testing.T) {
	m := NewManager()
	if _, err := m.Reserve(Size, "all"); err != nil {
		t.Fatalf("whole-space Reserve: %v", err)
	}
	if _, err := m.Reserve(pmem.PageSize, "x"); err != ErrExhausted {
		t.Fatalf("Reserve on full space = %v, want ErrExhausted", err)
	}
}

func TestReservedBytes(t *testing.T) {
	m := NewManager()
	m.Reserve(2*mib, "a")
	m.Reserve(4*mib, "b")
	if got := m.ReservedBytes(); got != 6*mib {
		t.Fatalf("ReservedBytes = %d, want %d", got, 6*mib)
	}
}

// TestQuickRandomOps drives the manager with random reserve/release
// traffic and checks the structural invariants after every step.
func TestQuickRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager()
		var live []pmem.Addr
		for i := 0; i < 200; i++ {
			switch {
			case len(live) > 0 && rng.Intn(3) == 0:
				k := rng.Intn(len(live))
				if err := m.Release(live[k]); err != nil {
					return false
				}
				live = append(live[:k], live[k+1:]...)
			case rng.Intn(2) == 0:
				size := uint64(1+rng.Intn(64)) * pmem.PageSize
				r, err := m.Reserve(size, "q")
				if err != nil {
					return false
				}
				live = append(live, r.Start)
			default:
				addr := Base + pmem.Addr(rng.Int63n(1<<30))&^pmem.Addr(pmem.PageSize-1)
				size := uint64(1+rng.Intn(64)) * pmem.PageSize
				r, err := m.ReserveAt(addr, size, "q")
				if err == nil {
					live = append(live, r.Start)
				}
			}
			if err := m.Validate(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		// All lookups on live reservations must succeed.
		for _, a := range live {
			if _, ok := m.Lookup(a); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
