package daemon

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/puddle"
)

// TestJournalReplayAfterCrash: metadata mutated after the boot
// checkpoint lives only in the journal; a daemon that dies without
// Shutdown must recover it from per-entity records on reboot.
func TestJournalReplayAfterCrash(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	pool := rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "journaled"})
	pu := rt(t, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize})
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "second"})
	rt(t, c, &proto.Request{Op: proto.OpDeletePool, Name: "second"})
	c.Close()
	// No Shutdown: the dirty flag stays set and no final checkpoint is
	// written — everything above exists only as journal batches.

	d2, err := New(dev)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	c2 := d2.SelfConn()
	defer c2.Close()
	opened := rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: "journaled"})
	if opened.Addr != pool.Addr || len(opened.Puddles) != 2 {
		t.Fatalf("journal replay lost state: %+v", opened)
	}
	got := rt(t, c2, &proto.Request{Op: proto.OpGetExistPuddle, UUID: pu.UUID})
	if got.Addr != pu.Addr {
		t.Fatalf("puddle record lost: %+v", got)
	}
	if _, err := c2.RoundTrip(&proto.Request{Op: proto.OpOpenPool, Name: "second"}); err == nil {
		t.Fatal("tombstoned pool came back to life")
	}
	if err := d2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistFailureSurfaced: when the journal append fails, the
// client must get an error (not an ack for unpersisted metadata), the
// PersistErrors counter must tick, and the daemon must not have
// applied the half-operation. The next worker pass compacts the
// journal and service resumes.
func TestPersistFailureSurfaced(t *testing.T) {
	d, c := newDaemon(t)
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "pre"})
	// Jam the journal tail at capacity so the next append cannot fit.
	d.jMu.Lock()
	realTail := d.jTail
	d.jTail = d.journalCap - entHdrSize
	d.jTailApprox.Store(d.jTail)
	d.jMu.Unlock()

	_, err := c.RoundTrip(&proto.Request{Op: proto.OpCreatePool, Name: "doomed"})
	if err == nil || !strings.Contains(err.Error(), "persisting metadata") {
		t.Fatalf("CreatePool with full journal = %v, want persist error", err)
	}
	st := rt(t, c, &proto.Request{Op: proto.OpStat}).Stats
	if st.PersistErrors == 0 {
		t.Fatalf("PersistErrors = 0 after failed persist; stats %+v", st)
	}
	if st.Pools != 1 {
		t.Fatalf("half-applied pool registered: %+v", st)
	}
	// The failed request's worker ran compaction (tail was over the
	// high-water mark), so the same request now succeeds.
	if st.JournalBytes >= realTail+d.journalHighWater() {
		t.Fatalf("journal not compacted: %d bytes", st.JournalBytes)
	}
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "doomed"})
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchPanicConfined: a panic inside one handler must produce
// an error response for that request, tick DispatchPanics, and leave
// the connection (and daemon) serving.
func TestDispatchPanicConfined(t *testing.T) {
	d, c := newDaemon(t)
	d.panicHook = func(req *proto.Request) {
		if req.Op == proto.OpListPools {
			panic("injected handler bug")
		}
	}
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpListPools}); err == nil ||
		!strings.Contains(err.Error(), "internal error") {
		t.Fatalf("panicking op = %v, want internal error response", err)
	}
	// Same connection keeps working.
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "alive"})
	st := rt(t, c, &proto.Request{Op: proto.OpStat}).Stats
	if st.DispatchPanics != 1 {
		t.Fatalf("DispatchPanics = %d, want 1", st.DispatchPanics)
	}
}

// TestGroupCommitConcurrentAppends: hammer appendBatch from many
// goroutines; every acked batch must survive a dirty reboot, and the
// journal must replay cleanly. This pins the leader-follower group
// commit to the same durability contract as the per-append path.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	const workers, each = 8, 40
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := c.RoundTrip(&proto.Request{
					Op: proto.OpCreatePool, Name: fmt.Sprintf("gc-%d-%d", w, i),
				}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c.Close()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	// No shutdown: everything acked lives in journal batches only.
	d2, err := New(dev)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	c2 := d2.SelfConn()
	defer c2.Close()
	st := rt(t, c2, &proto.Request{Op: proto.OpStat}).Stats
	if st.Pools != workers*each {
		t.Fatalf("pools after reboot = %d, want %d", st.Pools, workers*each)
	}
	if err := d2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkJournal_GroupCommit measures concurrent metadata appends
// with the fence-drain model armed: the leader-follower group commit
// amortizes the two journal fences over every concurrent caller,
// which is what lifts benchrunner daemonmt past its ~1.5x plateau.
func BenchmarkJournal_GroupCommit(b *testing.B) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		b.Fatal(err)
	}
	dev.SetFenceLatency(2 * time.Microsecond)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			err := d.appendBatch([]entRec{d.countersRec()})
			if err == errJournalFull {
				d.maybeCompact()
				continue
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
