package plog

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"puddles/internal/pmem"
	"puddles/internal/puddle"
	"puddles/internal/uid"
)

// scanned is Scan for tests that treat a defect like a torn tail.
func scanned(l *Log) []Entry {
	out, _ := l.Scan()
	return out
}

func mkRegion(dev *pmem.Device, base pmem.Addr, size uint64) pmem.Range {
	return pmem.Range{Start: base, End: base + pmem.Addr(size)}
}

func TestFormatOpenLog(t *testing.T) {
	dev := pmem.New()
	l, err := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
	if err != nil {
		t.Fatal(err)
	}
	if l.Head() != 0x10000 || l.Segments() != 1 {
		t.Fatalf("Head=%#x Segments=%d", uint64(l.Head()), l.Segments())
	}
	l2, err := OpenLog(dev, 0x10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh log is at rest: undo window open, nothing in it.
	if lo, hi := l2.Range(); lo != RangeUndoOnly[0] || hi != RangeUndoOnly[1] {
		t.Fatalf("fresh range = (%d,%d)", lo, hi)
	}
	if l2.Pending() {
		t.Fatal("fresh log is pending")
	}
	if _, err := FormatLog(dev, mkRegion(dev, 0x10030, 8192)); err != ErrMisaligned {
		t.Fatalf("FormatLog(header straddling a line) = %v", err)
	}
	if _, err := OpenLog(dev, 0x90000, nil); err != ErrBadLog {
		t.Fatalf("OpenLog(unformatted) = %v", err)
	}
}

func TestAppendAndEntries(t *testing.T) {
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
	in := []Entry{
		{Addr: 0x100, Seq: SeqUndo, Order: OrderBackward, Data: []byte{1, 2, 3}},
		{Addr: 0x200, Seq: SeqRedo, Order: OrderForward, Data: []byte{4, 5, 6, 7, 8, 9, 10, 11, 12}},
		{Addr: 0x300, Seq: SeqUndo, Order: OrderBackward, Flags: FlagVolatile, Data: []byte{13}},
	}
	for _, e := range in {
		if err := l.Append(e, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := scanned(l)
	if len(got) != len(in) {
		t.Fatalf("Entries = %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i].Addr != in[i].Addr || got[i].Seq != in[i].Seq ||
			got[i].Order != in[i].Order || got[i].Flags != in[i].Flags ||
			!bytes.Equal(got[i].Data, in[i].Data) {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], in[i])
		}
	}
}

func TestSetRange(t *testing.T) {
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
	l.SetRange(2, 4)
	if lo, hi := l.Range(); lo != 2 || hi != 4 {
		t.Fatalf("Range = (%d,%d)", lo, hi)
	}
}

func TestResetPoisonsOldEntries(t *testing.T) {
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
	l.Append(Entry{Addr: 0x100, Seq: 1, Data: []byte{9, 9}}, nil)
	l.Reset()
	if n := len(scanned(l)); n != 0 {
		t.Fatalf("after Reset, Entries = %d", n)
	}
	// New entry after reset is visible; stale bytes beyond it are not.
	l.Append(Entry{Addr: 0x200, Seq: 1, Data: []byte{1}}, nil)
	got := scanned(l)
	if len(got) != 1 || got[0].Addr != 0x200 {
		t.Fatalf("post-reset Entries = %+v", got)
	}
}

func TestStaleEntryFromPriorEpochInvisible(t *testing.T) {
	// Prior transaction wrote 3 entries; new one writes 1. The two
	// stale-but-checksum-intact records must not replay.
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
	for i := 0; i < 3; i++ {
		l.Append(Entry{Addr: pmem.Addr(0x100 + i*8), Seq: 1, Order: OrderBackward, Data: []byte{byte(i), 0, 0, 0, 0, 0, 0, 0}}, nil)
	}
	l.Reset()
	l.Append(Entry{Addr: 0x500, Seq: 1, Order: OrderBackward, Data: []byte{42, 0, 0, 0, 0, 0, 0, 0}}, nil)
	entries := scanned(l)
	if len(entries) != 1 || entries[0].Addr != 0x500 {
		t.Fatalf("Entries = %+v", entries)
	}
}

func TestLogFullWithoutGrow(t *testing.T) {
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 256))
	data := make([]byte, 64)
	var err error
	for i := 0; i < 100; i++ {
		if err = l.Append(Entry{Addr: 0x1, Seq: 1, Data: data}, nil); err != nil {
			break
		}
	}
	if err != ErrLogFull {
		t.Fatalf("err = %v, want ErrLogFull", err)
	}
}

func TestGrowChainsSegments(t *testing.T) {
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 512))
	next := pmem.Addr(0x20000)
	grow := func() (pmem.Range, error) {
		r := mkRegion(dev, next, 512)
		next += 0x10000
		return r, nil
	}
	data := make([]byte, 64)
	const n = 20
	for i := 0; i < n; i++ {
		if err := l.Append(Entry{Addr: pmem.Addr(i), Seq: 1, Data: data}, grow); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("Segments = %d, expected chaining", l.Segments())
	}
	if len(scanned(l)) != n {
		t.Fatalf("Entries = %d, want %d", len(scanned(l)), n)
	}
	// Reopen follows the chain.
	l2, err := OpenLog(dev, 0x10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Segments() != l.Segments() || len(scanned(l2)) != n {
		t.Fatalf("reopened: segs=%d entries=%d", l2.Segments(), len(scanned(l2)))
	}
	// Reset keeps the chain but empties it.
	l.Reset()
	if len(scanned(l)) != 0 {
		t.Fatal("entries survive Reset")
	}
}

func TestReplayUndo(t *testing.T) {
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
	// Memory starts as 1,2; tx undo-logs old values then clobbers.
	dev.StoreU64(0x1000, 1)
	dev.StoreU64(0x1008, 2)
	var old [8]byte
	dev.Load(0x1000, old[:])
	l.Append(Entry{Addr: 0x1000, Seq: SeqUndo, Order: OrderBackward, Data: append([]byte{}, old[:]...)}, nil)
	dev.Load(0x1008, old[:])
	l.Append(Entry{Addr: 0x1008, Seq: SeqUndo, Order: OrderBackward, Data: append([]byte{}, old[:]...)}, nil)
	l.SetRange(RangeUndoOnly[0], RangeUndoOnly[1])
	dev.StoreU64(0x1000, 100)
	dev.StoreU64(0x1008, 200)
	// Crash before commit: replay rolls back.
	applied := l.Replay(true, nil)
	if applied != 2 {
		t.Fatalf("applied = %d", applied)
	}
	if dev.LoadU64(0x1000) != 1 || dev.LoadU64(0x1008) != 2 {
		t.Fatalf("rollback failed: %d %d", dev.LoadU64(0x1000), dev.LoadU64(0x1008))
	}
	if l.Pending() {
		t.Fatal("log still pending after replay")
	}
}

func TestReplayRedo(t *testing.T) {
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
	var nv [8]byte
	nv[0] = 77
	l.Append(Entry{Addr: 0x2000, Seq: SeqRedo, Order: OrderForward, Data: nv[:]}, nil)
	l.SetRange(RangeRedoOnly[0], RangeRedoOnly[1])
	// Crash during stage 2: replay rolls forward.
	l.Replay(true, nil)
	if dev.LoadU64(0x2000) != 77 {
		t.Fatalf("roll-forward failed: %d", dev.LoadU64(0x2000))
	}
}

func TestReplayOrderUndoReverseRedoForward(t *testing.T) {
	// Two undo entries for the same address: replay must apply them in
	// reverse so the OLDEST value wins. Two redo entries for another
	// address: forward order, so the NEWEST wins.
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
	mk := func(v byte) []byte { b := make([]byte, 8); b[0] = v; return b }
	l.Append(Entry{Addr: 0x1000, Seq: 1, Order: OrderBackward, Data: mk(10)}, nil) // oldest
	l.Append(Entry{Addr: 0x1000, Seq: 1, Order: OrderBackward, Data: mk(20)}, nil)
	l.Append(Entry{Addr: 0x2000, Seq: 1, Order: OrderForward, Data: mk(30)}, nil)
	l.Append(Entry{Addr: 0x2000, Seq: 1, Order: OrderForward, Data: mk(40)}, nil) // newest
	l.SetRange(0, 2)
	l.Replay(true, nil)
	if v := dev.LoadU64(0x1000); v != 10 {
		t.Fatalf("undo replay: %d, want 10 (oldest)", v)
	}
	if v := dev.LoadU64(0x2000); v != 40 {
		t.Fatalf("redo replay: %d, want 40 (newest)", v)
	}
}

func TestReplaySkipsVolatileForSystem(t *testing.T) {
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
	b := make([]byte, 8)
	b[0] = 5
	l.Append(Entry{Addr: 0x3000, Seq: 1, Order: OrderBackward, Flags: FlagVolatile, Data: b}, nil)
	l.SetRange(0, 2)
	if n := l.Replay(true, nil); n != 0 {
		t.Fatalf("system replay applied %d volatile entries", n)
	}
	// Runtime abort (system=false) applies it.
	l2, _ := FormatLog(dev, mkRegion(dev, 0x40000, 8192))
	l2.Append(Entry{Addr: 0x3000, Seq: 1, Order: OrderBackward, Flags: FlagVolatile, Data: b}, nil)
	l2.SetRange(0, 2)
	if n := l2.Replay(false, nil); n != 1 {
		t.Fatalf("runtime replay applied %d", n)
	}
	if dev.LoadU64(0x3000) != 5 {
		t.Fatal("runtime replay did not write")
	}
}

func TestReplayRangeFiltering(t *testing.T) {
	// Stage semantics: with range (2,4), undo entries (seq 1) are dead
	// and redo entries (seq 3) replay.
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
	mk := func(v byte) []byte { b := make([]byte, 8); b[0] = v; return b }
	dev.StoreU64(0x1000, 111)
	l.Append(Entry{Addr: 0x1000, Seq: SeqUndo, Order: OrderBackward, Data: mk(1)}, nil)
	l.Append(Entry{Addr: 0x2000, Seq: SeqRedo, Order: OrderForward, Data: mk(2)}, nil)
	l.SetRange(RangeRedoOnly[0], RangeRedoOnly[1])
	l.Replay(true, nil)
	if dev.LoadU64(0x1000) != 111 {
		t.Fatal("dead undo entry was replayed")
	}
	if dev.LoadU64(0x2000) != 2 {
		t.Fatal("live redo entry was not replayed")
	}
}

func TestReplayApplyFilter(t *testing.T) {
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
	b := make([]byte, 8)
	b[0] = 9
	l.Append(Entry{Addr: 0x5000, Seq: 1, Order: OrderForward, Data: b}, nil)
	l.SetRange(0, 2)
	n := l.Replay(true, func(e Entry) bool { return false })
	if n != 0 || dev.LoadU64(0x5000) != 0 {
		t.Fatal("filtered entry was applied")
	}
}

func TestRangeClosedReplaysNothing(t *testing.T) {
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
	b := make([]byte, 8)
	b[0] = 3
	l.Append(Entry{Addr: 0x6000, Seq: 1, Order: OrderForward, Data: b}, nil)
	l.SetRange(RangeNone[0], RangeNone[1])
	if l.Pending() {
		t.Fatal("closed-range log reports pending")
	}
	l.Replay(true, nil)
	if dev.LoadU64(0x6000) != 0 {
		t.Fatal("stage-3 log replayed")
	}
}

func TestTornEntryDetectedByChecksum(t *testing.T) {
	// Simulate a crash that persisted the used-counter bump but tore
	// the entry payload: the checksum must reject it.
	dev := pmem.New()
	l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
	data := make([]byte, 32)
	for i := range data {
		data[i] = 0xEE
	}
	l.Append(Entry{Addr: 0x1000, Seq: 1, Data: data}, nil)
	// Corrupt one payload byte behind the log's back.
	dev.StoreU8(0x10000+lHdrSize+EntryHdrSize+5, 0x00)
	if n := len(scanned(l)); n != 0 {
		t.Fatalf("torn entry passed validation (%d entries)", n)
	}
}

func TestChaosCrashMidAppendNeverYieldsTornEntry(t *testing.T) {
	// Crash at every possible event point during a sequence of appends;
	// after each crash the log must contain a clean prefix: entries are
	// either fully present or absent, never torn.
	payload := func(i int) []byte {
		b := make([]byte, 24)
		for j := range b {
			b[j] = byte(i*31 + j)
		}
		return b
	}
	for ev := int64(1); ev < 200; ev += 3 {
		dev := pmem.NewChaos(ev)
		l, err := FormatLog(dev, mkRegion(dev, 0x10000, 8192))
		if err != nil {
			t.Fatal(err)
		}
		dev.CrashAtEvent(dev.Events() + ev)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if !pmem.IsCrash(r) {
						panic(r)
					}
					crashed = true
				}
			}()
			for i := 0; i < 8; i++ {
				if err := l.Append(Entry{Addr: pmem.Addr(0x1000 + i), Seq: 1, Data: payload(i)}, nil); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
		if !crashed {
			break // appends finished before the crash point; done probing
		}
		l2, err := OpenLog(dev, 0x10000, nil)
		if err != nil {
			t.Fatalf("ev %d: reopen: %v", ev, err)
		}
		for i, e := range scanned(l2) {
			if e.Addr != pmem.Addr(0x1000+i) || !bytes.Equal(e.Data, payload(i)) {
				t.Fatalf("ev %d: entry %d torn or out of order", ev, i)
			}
		}
	}
}

// formatOneShard formats a 1-shard log space over a fresh MinSize
// puddle and returns its directory.
func formatOneShard(t *testing.T, dev *pmem.Device) (*puddle.Puddle, *LogSpace) {
	t.Helper()
	p, err := puddle.Format(dev, 0x100000, puddle.MinSize, uid.New(), puddle.KindLogSpace, uid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FormatShardedLogSpace(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p, s.Shard(0)
}

func TestLogSpace(t *testing.T) {
	p, ls := formatOneShard(t, pmem.New())
	if ls.Capacity() <= 0 {
		t.Fatal("no capacity")
	}
	ids := []uid.UUID{uid.New(), uid.New(), uid.New()}
	for i, id := range ids {
		if err := ls.AddLog(pmem.Addr(0x1000*(i+1)), id); err != nil {
			t.Fatal(err)
		}
	}
	if got := ls.Logs(); len(got) != 3 {
		t.Fatalf("Logs = %v", got)
	}
	if !ls.RemoveLog(0x2000) {
		t.Fatal("RemoveLog failed")
	}
	if got := ls.Logs(); len(got) != 2 {
		t.Fatalf("Logs after remove = %v", got)
	}
	// Slot reuse.
	if err := ls.AddLog(0x9000, uid.New()); err != nil {
		t.Fatal(err)
	}
	if got := ls.Logs(); len(got) != 3 {
		t.Fatalf("Logs after reuse = %v", got)
	}
	// Reopen.
	s2, err := OpenShardedLogSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Shards() != 1 || len(s2.Logs()) != 3 {
		t.Fatal("reopened log space lost entries")
	}
	if ls.RemoveLog(0xdead) {
		t.Fatal("RemoveLog of unknown head succeeded")
	}
}

func TestLogSpaceFull(t *testing.T) {
	_, ls := formatOneShard(t, pmem.New())
	for i := 0; i < ls.Capacity(); i++ {
		if err := ls.AddLog(pmem.Addr(0x1000+i*8), uid.New()); err != nil {
			t.Fatal(err)
		}
	}
	if err := ls.AddLog(0xffff0, uid.New()); err != ErrLogSpaceFull {
		t.Fatalf("overfull AddLog = %v", err)
	}
}

func TestQuickEntryRoundTrip(t *testing.T) {
	dev := pmem.New()
	f := func(addr uint32, seq uint32, back bool, vol bool, data []byte) bool {
		if len(data) > 1024 {
			data = data[:1024]
		}
		l, err := FormatLog(dev, mkRegion(dev, 0x400000, 4096))
		if err != nil {
			return false
		}
		e := Entry{Addr: pmem.Addr(addr), Seq: seq, Data: data}
		if back {
			e.Order = OrderBackward
		}
		if vol {
			e.Flags = FlagVolatile
		}
		if err := l.Append(e, nil); err != nil {
			return false
		}
		got := scanned(l)
		return len(got) == 1 && got[0].Addr == e.Addr && got[0].Seq == e.Seq &&
			got[0].Order == e.Order && got[0].Flags == e.Flags && bytes.Equal(got[0].Data, e.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReplayIdempotentAfterReset(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := pmem.New()
		l, _ := FormatLog(dev, mkRegion(dev, 0x10000, 1<<16))
		for i := 0; i < 1+rng.Intn(20); i++ {
			b := make([]byte, 8)
			rng.Read(b)
			l.Append(Entry{Addr: pmem.Addr(0x1000 + rng.Intn(64)*8), Seq: 1, Order: OrderBackward, Data: b}, nil)
		}
		l.SetRange(0, 2)
		l.Replay(true, nil)
		// Second replay must be a no-op: log was invalidated.
		return l.Replay(true, nil) == 0 && !l.Pending()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- sharded log spaces ---

func TestShardedLogSpaceRoundTrip(t *testing.T) {
	dev := pmem.New()
	p, err := puddle.Format(dev, 0x100000, 8*pmem.PageSize, uid.New(), puddle.KindLogSpace, uid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FormatShardedLogSpace(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 4 {
		t.Fatalf("Shards=%d", s.Shards())
	}
	// Register logs across every shard.
	heads := map[int][]pmem.Addr{}
	for i := 0; i < 12; i++ {
		sh := i % 4
		head := pmem.Addr(0x1000 * (i + 1))
		if err := s.AddLog(sh, head, uid.New()); err != nil {
			t.Fatal(err)
		}
		heads[sh] = append(heads[sh], head)
	}
	if got := len(s.Logs()); got != 12 {
		t.Fatalf("Logs = %d, want 12", got)
	}
	// Reopen: per-shard membership must be preserved (shard identity
	// matters — the daemon replays shards independently).
	s2, err := OpenShardedLogSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	for sh, want := range heads {
		got := s2.ShardLogs(sh)
		if len(got) != len(want) {
			t.Fatalf("shard %d: %v, want %v", sh, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shard %d: %v, want %v", sh, got, want)
			}
		}
	}
	// Remove from the right shard only.
	if s2.RemoveLog(1, heads[0][0]) {
		t.Fatal("RemoveLog found a head in the wrong shard")
	}
	if !s2.RemoveLog(0, heads[0][0]) {
		t.Fatal("RemoveLog missed a registered head")
	}
	if got := len(s2.Logs()); got != 11 {
		t.Fatalf("Logs after remove = %d, want 11", got)
	}
}

func TestShardedLogSpaceShardFull(t *testing.T) {
	dev := pmem.New()
	p, _ := puddle.Format(dev, 0x100000, 8*pmem.PageSize, uid.New(), puddle.KindLogSpace, uid.Nil)
	s, err := FormatShardedLogSpace(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	capacity := s.Shard(0).Capacity()
	for i := 0; i < capacity; i++ {
		if err := s.AddLog(0, pmem.Addr(0x1000+i*8), uid.New()); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 0 is full; shard 1 still has room (the caller's fallback).
	if err := s.AddLog(0, 0xffff0, uid.New()); err != ErrLogSpaceFull {
		t.Fatalf("overfull shard AddLog = %v", err)
	}
	if err := s.AddLog(1, 0xffff0, uid.New()); err != nil {
		t.Fatalf("sibling shard AddLog = %v", err)
	}
}

func TestShardedLogSpaceCorruptGeometry(t *testing.T) {
	dev := pmem.New()
	p, _ := puddle.Format(dev, 0x100000, 8*pmem.PageSize, uid.New(), puddle.KindLogSpace, uid.Nil)
	if _, err := FormatShardedLogSpace(p, 4); err != nil {
		t.Fatal(err)
	}
	// Scribble the shard count without fixing the CRC.
	dev.StoreU64(p.HeapBase()+slsOffShards, 9999)
	if _, err := OpenShardedLogSpace(p); err == nil {
		t.Fatal("corrupt super-header opened")
	}
	// An unformatted heap is ErrBadLog.
	p2, _ := puddle.Format(dev, 0x200000, puddle.MinSize, uid.New(), puddle.KindLogSpace, uid.Nil)
	if _, err := OpenShardedLogSpace(p2); err != ErrBadLog {
		t.Fatalf("unformatted open = %v, want ErrBadLog", err)
	}
	// So is the retired single-directory format's magic.
	dev.StoreU64(p2.HeapBase(), 0x3143505350) // "PSPC1"
	if _, err := OpenShardedLogSpace(p2); err != ErrBadLog {
		t.Fatalf("PSPC1 open = %v, want ErrBadLog", err)
	}
}

func TestShardedLogSpaceBadShardCount(t *testing.T) {
	dev := pmem.New()
	p, _ := puddle.Format(dev, 0x100000, puddle.MinSize, uid.New(), puddle.KindLogSpace, uid.Nil)
	if _, err := FormatShardedLogSpace(p, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := FormatShardedLogSpace(p, MaxLogShards+1); err == nil {
		t.Fatal("oversized shard count accepted")
	}
	// MinSize heap cannot hold 64 shard directories.
	if _, err := FormatShardedLogSpace(p, 64); err != ErrTooSmall {
		t.Fatalf("undersized format = %v, want ErrTooSmall", err)
	}
}
