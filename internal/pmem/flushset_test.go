package pmem

import (
	"encoding/binary"
	"testing"
)

func TestFlushSetMergesOverlapAndAdjacency(t *testing.T) {
	d := New()
	var fs FlushSet

	// Same cacheline twice, overlapping bytes.
	fs.Add(0x1000, 8)
	fs.Add(0x1004, 8)
	// Adjacent line: merges into one run.
	fs.Add(0x1040, 64)
	// Disjoint line far away.
	fs.Add(0x9000, 8)
	if got := fs.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2 (one 2-line run + one isolated line)", got)
	}
	before := d.Stats().Flushes
	issued := fs.Flush(d)
	if issued != 2 {
		t.Fatalf("issued %d flushes, want 2", issued)
	}
	if got := d.Stats().Flushes - before; got != 2 {
		t.Fatalf("device saw %d flushes, want 2", got)
	}
	st := d.Stats()
	if st.FlushRequests != 4 {
		t.Fatalf("FlushRequests = %d, want 4", st.FlushRequests)
	}
	if st.CoalescedFlushes != 2 {
		t.Fatalf("CoalescedFlushes = %d, want 2", st.CoalescedFlushes)
	}
	if !fs.Empty() {
		t.Fatal("set not reset after Flush")
	}
}

func TestFlushSetOutOfOrderRanges(t *testing.T) {
	d := New()
	var fs FlushSet
	// Descending and interleaved adds must still merge into one run.
	fs.Add(0x2080, 8)
	fs.Add(0x2000, 8)
	fs.Add(0x2040, 8)
	if issued := fs.Flush(d); issued != 1 {
		t.Fatalf("issued %d flushes, want 1 contiguous run", issued)
	}
}

func TestFlushSetSpanningRange(t *testing.T) {
	d := New()
	var fs FlushSet
	// One range spanning many lines is a single flush.
	fs.Add(0x4001, 1000)
	fs.Add(0x4100, 4) // inside the span: absorbed
	if issued := fs.Flush(d); issued != 1 {
		t.Fatalf("issued %d flushes, want 1", issued)
	}
	st := d.Stats()
	if st.CoalescedFlushes != 1 {
		t.Fatalf("CoalescedFlushes = %d, want 1", st.CoalescedFlushes)
	}
}

func TestFlushSetIgnoresEmptyRanges(t *testing.T) {
	d := New()
	var fs FlushSet
	fs.Add(0x1000, 0)
	fs.Add(0x1000, -4)
	if !fs.Empty() {
		t.Fatal("empty ranges were recorded")
	}
	if issued := fs.Flush(d); issued != 0 {
		t.Fatalf("issued %d flushes from an empty set", issued)
	}
}

func TestFlushSetChaosDurability(t *testing.T) {
	// The coalesced flush must cover every dirtied line: stage writes in
	// chaos mode, flush through the set, fence, then drop the volatile
	// overlay. Anything the coalescer missed would read back as zero.
	dev := NewChaos(1)
	var fs FlushSet
	addrs := []Addr{0x1000, 0x1008, 0x1040, 0x1100, 0x8000}
	for i, a := range addrs {
		dev.StoreU64(a, uint64(i+1))
		fs.Add(a, 8)
	}
	fs.Flush(dev)
	dev.Fence()
	dev.DropVolatile()
	for i, a := range addrs {
		if got := dev.LoadU64(a); got != uint64(i+1) {
			t.Fatalf("addr %#x = %d after drop, want %d (line missed by coalescer)", uint64(a), got, i+1)
		}
	}
}

func TestFlushSetReset(t *testing.T) {
	d := New()
	var fs FlushSet
	fs.Add(0x1000, 8)
	fs.Reset()
	if issued := fs.Flush(d); issued != 0 {
		t.Fatalf("issued %d flushes after Reset", issued)
	}
	if st := d.Stats(); st.FlushRequests != 0 {
		t.Fatalf("FlushRequests = %d after Reset, want 0", st.FlushRequests)
	}
}

func TestFlushSetInlineAndSpilled(t *testing.T) {
	// The first ranges live in the set, later ones in a heap slice: the
	// set must behave the same on both sides of that edge, and again
	// when it is reused after a flush.
	d := New()
	var fs FlushSet
	for round := 0; round < 2; round++ {
		for n := 1; n <= 2*flushInline+1; n++ {
			for i := n; i > 0; i-- { // descending, two lines apart: nothing merges
				fs.Add(Addr(0x1000+i*2*LineSize), 8)
			}
			if got := fs.Pending(); got != n {
				t.Fatalf("round %d: Pending() = %d with %d disjoint ranges", round, got, n)
			}
			if got := fs.Pending(); got != n {
				t.Fatalf("round %d: a second Pending() = %d, want %d: the first one disturbed the set", round, got, n)
			}
			if issued := fs.Flush(d); issued != n {
				t.Fatalf("round %d: %d flushes for %d disjoint ranges", round, issued, n)
			}
			if !fs.Empty() {
				t.Fatalf("round %d: set not empty after Flush", round)
			}
		}
	}
	// A small batch in a local variable stays off the Go heap.
	if allocs := testing.AllocsPerRun(100, func() {
		var local FlushSet
		for i := flushInline; i > 0; i-- {
			local.Add(Addr(0x1000+i*2*LineSize), 8)
		}
		local.Flush(d)
	}); allocs != 0 {
		t.Fatalf("%v allocations for a batch of %d ranges, want 0", allocs, flushInline)
	}
}

// fuzzFlushWindow bounds FuzzFlushSet's addresses: a 14-bit start plus
// a length under 2 KiB, so every line a range can touch is in view.
const fuzzFlushWindow = 1<<14 + 2048

// flushRecords encodes (addr, len) pairs the way FuzzFlushSet reads
// them: a little-endian uint16 address and int16 length per record.
func flushRecords(rs ...[2]int) []byte {
	var b []byte
	for _, r := range rs {
		b = binary.LittleEndian.AppendUint16(b, uint16(r[0]))
		b = binary.LittleEndian.AppendUint16(b, uint16(int16(r[1])))
	}
	return b
}

// FuzzFlushSet checks the lines a FlushSet flushes against a naive line
// bitmap: every line in the window is dirtied, the set is flushed and
// fenced, and the unflushed lines are dropped. Exactly the bitmap's
// lines must survive, in one flush per maximal run of them.
func FuzzFlushSet(f *testing.F) {
	var desc [][2]int
	for i := 63; i >= 0; i-- {
		desc = append(desc, [2]int{i * 2 * LineSize, 8})
	}
	f.Add(flushRecords(desc...))
	var spill [][2]int
	for i := 0; i <= flushInline; i++ {
		spill = append(spill, [2]int{0x1000 + i*3*LineSize, 16})
	}
	f.Add(flushRecords(spill...))
	f.Add(flushRecords([2]int{0x100, 0}, [2]int{0x200, -4}, [2]int{0x140, 64}, [2]int{0x3fff, 2047}, [2]int{0x180, -2048}))
	f.Fuzz(func(t *testing.T, data []byte) {
		dev := NewChaos(1)
		var fs FlushSet
		var want [fuzzFlushWindow / LineSize]bool
		requests := uint64(0)
		for ; len(data) >= 4; data = data[4:] {
			addr := Addr(binary.LittleEndian.Uint16(data) & (1<<14 - 1))
			n := int(int16(binary.LittleEndian.Uint16(data[2:]))) % 2048
			fs.Add(addr, n)
			if n <= 0 {
				continue
			}
			requests++
			for la := addr / LineSize; la <= (addr+Addr(n)-1)/LineSize; la++ {
				want[la] = true
			}
		}
		runs := 0
		for la := range want {
			if want[la] && (la == 0 || !want[la-1]) {
				runs++
			}
			dev.StoreU64(Addr(la)*LineSize, uint64(la)+1)
		}
		if got := fs.Pending(); got != runs {
			t.Fatalf("Pending() = %d, the bitmap has %d runs", got, runs)
		}
		if issued := fs.Flush(dev); issued != runs {
			t.Fatalf("Flush issued %d flushes, the bitmap has %d runs", issued, runs)
		}
		if st := dev.Stats(); st.Flushes != uint64(runs) || st.FlushRequests != requests {
			t.Fatalf("device saw %d flushes and %d requests, want %d and %d", st.Flushes, st.FlushRequests, runs, requests)
		}
		dev.Fence()
		dev.DropVolatile()
		for la, w := range want {
			got := dev.LoadU64(Addr(la) * LineSize)
			if w && got != uint64(la)+1 {
				t.Fatalf("line %#x was added but not flushed", la*LineSize)
			}
			if !w && got != 0 {
				t.Fatalf("line %#x was flushed but never added", la*LineSize)
			}
		}
	})
}
