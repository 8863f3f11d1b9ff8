package plog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"puddles/internal/pmem"
)

// twoSegmentLog formats a small head segment at 0x10000, chains a
// second one at 0x20000 and appends n undo entries that span both.
func twoSegmentLog(t *testing.T, dev *pmem.Device, n int) *Log {
	t.Helper()
	l, err := FormatLog(dev, mkRegion(dev, 0x10000, 512))
	if err != nil {
		t.Fatal(err)
	}
	grow := func() (pmem.Range, error) { return mkRegion(dev, 0x20000, 4096), nil }
	for i := 0; i < n; i++ {
		data := make([]byte, 64)
		binary.LittleEndian.PutUint64(data, uint64(i)+1)
		if err := l.Append(Entry{Addr: pmem.Addr(0x1000 + i*64), Seq: SeqUndo, Order: OrderBackward, Data: data}, grow); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() != 2 {
		t.Fatalf("Segments = %d, want 2", l.Segments())
	}
	return l
}

// crashInside runs fn with a crash armed k events from now and reports
// whether it fired.
func crashInside(dev *pmem.Device, k int64, drop bool, fn func()) (crashed bool) {
	if drop {
		dev.CrashAtEventDropping(dev.Events() + k)
	} else {
		dev.CrashAtEvent(dev.Events() + k)
	}
	defer func() {
		dev.CrashAtEvent(0)
		if r := recover(); r != nil {
			if !pmem.IsCrash(r) {
				panic(r)
			}
			crashed = true
		}
	}()
	fn()
	return false
}

func TestResetCrashIsAllOrNothing(t *testing.T) {
	// Reset of a two-segment log, crashed at each of its persist events,
	// each under eight chaos seeds and under DropVolatile. What recovery
	// would see afterwards is every entry of the transaction or none:
	// a strict subset would roll back part of a committed transaction.
	const n = 8
	for _, hybrid := range []bool{false, true} {
		for k := int64(1); ; k++ {
			fired := false
			for seed := int64(0); seed <= 8; seed++ {
				drop := seed == 8
				name := fmt.Sprintf("hybrid=%v event=%d seed=%d drop=%v", hybrid, k, seed, drop)
				dev := pmem.NewChaos(1000*k + seed)
				l := twoSegmentLog(t, dev, n)
				if hybrid {
					l.SetRange(RangeRedoOnly[0], RangeRedoOnly[1])
				}
				wantLo, wantHi := l.Range()
				if !crashInside(dev, k, drop, l.Reset) {
					dev.DropVolatile() // Reset returned: its fence must have sufficed
				} else {
					fired = true
				}
				l2, err := OpenLog(dev, 0x10000, nil)
				if err != nil {
					t.Fatalf("%s: reopen: %v", name, err)
				}
				got := scanned(l2)
				switch len(got) {
				case n:
					if !fired {
						t.Fatalf("%s: Reset returned but all entries are still valid", name)
					}
					// Old epoch: the range must be the transaction's, too.
					if lo, hi := l2.Range(); lo != wantLo || hi != wantHi {
						t.Fatalf("%s: entries valid under range (%d,%d), want (%d,%d)", name, lo, hi, wantLo, wantHi)
					}
				case 0:
					if l2.Pending() {
						t.Fatalf("%s: empty log is pending", name)
					}
				default:
					t.Fatalf("%s: %d of %d entries visible after the crash", name, len(got), n)
				}
				// Whatever survived, the log must take the next transaction.
				l2.Replay(true, func(Entry) bool { return false })
				if lo, hi := l2.Range(); lo != RangeUndoOnly[0] || hi != RangeUndoOnly[1] {
					t.Fatalf("%s: range after Replay = (%d,%d)", name, lo, hi)
				}
				if err := l2.Append(Entry{Addr: 0x5000, Seq: SeqUndo, Order: OrderBackward, Data: []byte{7}}, nil); err != nil {
					t.Fatalf("%s: append after recovery: %v", name, err)
				}
				if es := scanned(l2); len(es) != 1 || es[0].Addr != 0x5000 || !l2.Pending() {
					t.Fatalf("%s: log not reusable: %+v", name, es)
				}
			}
			if !fired {
				if k < 6 {
					t.Fatalf("Reset has only %d persist events?", k-1)
				}
				break
			}
		}
	}
}

func TestResetCost(t *testing.T) {
	// One flush and one fence whatever the range was, plus a flush (no
	// fence) per chained segment.
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
	for _, r := range [][2]uint32{RangeUndoOnly, RangeRedoOnly, {0, 0}} {
		l.Append(Entry{Addr: 0x100, Seq: 1, Data: []byte{1}}, nil)
		l.SetRange(r[0], r[1])
		s0 := dev.Stats()
		l.Reset()
		s1 := dev.Stats()
		if s1.Fences-s0.Fences != 1 || s1.Flushes-s0.Flushes != 1 {
			t.Fatalf("Reset from %v: %d fences, %d flushes", r, s1.Fences-s0.Fences, s1.Flushes-s0.Flushes)
		}
		if lo, hi := l.Range(); lo != 0 || hi != 2 {
			t.Fatalf("range after Reset = (%d,%d)", lo, hi)
		}
	}
	l2 := twoSegmentLog(t, dev, 8)
	s0 := dev.Stats()
	l2.Reset()
	s1 := dev.Stats()
	if s1.Fences-s0.Fences != 1 || s1.Flushes-s0.Flushes != 2 {
		t.Fatalf("two-segment Reset: %d fences, %d flushes", s1.Fences-s0.Fences, s1.Flushes-s0.Flushes)
	}
}

// plantWildSize writes, into a formatted log at base, the entry the
// scanner used to die on: a size of ^uint64(7), whose 8-byte-rounded
// span wraps around to 24.
func plantWildSize(dev *pmem.Device, base pmem.Addr) {
	var hdr [EntryHdrSize]byte
	binary.LittleEndian.PutUint64(hdr[eOffSize:], ^uint64(7))
	dev.Store(base+lHdrSize, hdr[:])
	dev.StoreU64(base+lOffUsed, 64)
	dev.Persist(base, lHdrSize+EntryHdrSize)
}

func TestScanRejectsWildSize(t *testing.T) {
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
	plantWildSize(dev, 0x10000)
	if l.Pending() {
		t.Fatal("log with one malformed entry is pending")
	}
	es, err := l.Scan()
	if len(es) != 0 || !errors.Is(err, ErrBadEntry) {
		t.Fatalf("Scan = %d entries, %v; want none and ErrBadEntry", len(es), err)
	}
	if n := l.Replay(true, nil); n != 0 {
		t.Fatalf("Replay applied %d entries", n)
	}
	// A good entry in front of it is still found.
	l.Append(Entry{Addr: 0x100, Seq: SeqUndo, Order: OrderBackward, Data: []byte{1, 2, 3}}, nil)
	var hdr [EntryHdrSize]byte
	binary.LittleEndian.PutUint64(hdr[eOffSize:], 1<<40)
	used := dev.LoadU64(0x10000 + lOffUsed)
	dev.Store(0x10000+lHdrSize+pmem.Addr(used), hdr[:])
	dev.StoreU64(0x10000+lOffUsed, used+64)
	es, err = l.Scan()
	if len(es) != 1 || !errors.Is(err, ErrBadEntry) {
		t.Fatalf("Scan = %d entries, %v; want the good one and ErrBadEntry", len(es), err)
	}
}

func TestOpenLogClampsToTheRegion(t *testing.T) {
	dev := pmem.New()
	region := mkRegion(dev, 0x10000, 4096)
	bounds := func(base pmem.Addr) (pmem.Range, bool) {
		if region.Contains(base) {
			return region, true
		}
		return pmem.Range{}, false
	}
	if _, err := FormatLog(dev, region); err != nil {
		t.Fatal(err)
	}
	// The owner claims a terabyte of capacity, all of it used, holding
	// one entry of half a terabyte.
	dev.StoreU64(0x10000+lOffCap, 1<<40)
	dev.StoreU64(0x10000+lOffUsed, 1<<40)
	var hdr [EntryHdrSize]byte
	binary.LittleEndian.PutUint64(hdr[eOffSize:], 1<<39)
	dev.Store(0x10000+lHdrSize, hdr[:])
	l, err := OpenLog(dev, 0x10000, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if es, err := l.Scan(); len(es) != 0 || !errors.Is(err, ErrBadEntry) {
		t.Fatalf("Scan = %d entries, %v", len(es), err)
	}
	// A next pointer out of every region ends the chain; a head out of
	// every region is refused.
	dev.StoreU64(0x10000+lOffNext, 0x7000000)
	if l, err = OpenLog(dev, 0x10000, bounds); err != nil || l.Segments() != 1 {
		t.Fatalf("wild next: %v, %d segments", err, l.Segments())
	}
	if _, err := OpenLog(dev, 0x7000000, bounds); err != ErrOutOfBounds {
		t.Fatalf("head outside every region: %v", err)
	}
	if _, err := OpenLog(dev, pmem.MaxAddr+64, nil); err != ErrOutOfBounds {
		t.Fatalf("head beyond the device: %v", err)
	}
}
