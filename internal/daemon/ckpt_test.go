package daemon

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/puddle"
)

// TestFailedCheckpointSideEffectFree: a checkpoint that cannot fit
// must not perturb journal sequencing or lose dirty-entity tracking;
// after the capacity returns, everything checkpointed and journaled
// must survive a dirty reboot.
func TestFailedCheckpointSideEffectFree(t *testing.T) {
	t.Run("chunked", func(t *testing.T) {
		dev := pmem.New()
		d, err := New(dev)
		if err != nil {
			t.Fatal(err)
		}
		c := d.SelfConn()
		rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "kept"})
		seqBefore := d.seq
		half := d.ckptHalf
		d.ckptHalf = 64 // no chunk fits; writeChunk fails before writing
		if _, err := d.CompactNow(); err == nil {
			t.Fatal("checkpoint into a 64-byte half succeeded")
		}
		if d.seq != seqBefore {
			t.Fatalf("failed checkpoint moved seq %d->%d", seqBefore, d.seq)
		}
		d.ckptHalf = half
		// The dirty set must have been restored: the next compaction's
		// image re-captures "kept", and a dirty reboot — whose journal
		// entries were reclaimed by that compaction — still shows it.
		if _, err := d.CompactNow(); err != nil {
			t.Fatal(err)
		}
		rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "after"})
		c.Close()
		d2, err := New(dev)
		if err != nil {
			t.Fatalf("reboot: %v", err)
		}
		c2 := d2.SelfConn()
		defer c2.Close()
		rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: "kept"})
		rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: "after"})
		if err := d2.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChunkedCheckpointCompose: several checkpoints with tiny chunks —
// multi-chunk images taken after creations and after deletions — must
// compose with the journal into exactly the live registry after a
// dirty reboot.
func TestChunkedCheckpointCompose(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev, WithCheckpointChunkBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	for i := 0; i < 12; i++ {
		resp := rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: fmt.Sprintf("pool-%d", i)})
		rt(t, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: resp.Pool, Size: puddle.MinSize})
	}
	if _, err := d.CompactNow(); err != nil { // image 1: after creations
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		rt(t, c, &proto.Request{Op: proto.OpDeletePool, Name: fmt.Sprintf("pool-%d", i)})
	}
	if _, err := d.CompactNow(); err != nil { // image 2: after deletions
		t.Fatal(err)
	}
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "journal-only"})
	c.Close() // dirty: the last pool lives only in the journal

	d2, err := New(dev)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	c2 := d2.SelfConn()
	defer c2.Close()
	for i := 0; i < 4; i++ {
		if _, err := c2.RoundTrip(&proto.Request{Op: proto.OpOpenPool, Name: fmt.Sprintf("pool-%d", i)}); err == nil {
			t.Fatalf("tombstoned pool-%d came back", i)
		}
	}
	for i := 4; i < 12; i++ {
		opened := rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: fmt.Sprintf("pool-%d", i)})
		if len(opened.Puddles) != 2 {
			t.Fatalf("pool-%d has %d puddles, want 2", i, len(opened.Puddles))
		}
	}
	rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: "journal-only"})
	if err := d2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	st := rt(t, c2, &proto.Request{Op: proto.OpStat}).Stats
	if st.Checkpoints == 0 || st.CheckpointChunks == 0 || st.CheckpointSeq == 0 {
		t.Fatalf("checkpoint stats not surfaced: %+v", st)
	}
}

// TestJournalSwitchCompose: state must survive dirty reboots that
// span journal double-buffer switches — including the window where a
// compaction switched journals but its checkpoint FAILED to commit,
// so the acked mutations live split across BOTH journal regions on
// top of an older checkpoint.
func TestJournalSwitchCompose(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "a"})
	if _, err := d.CompactNow(); err != nil { // commit; switch to journal 1
		t.Fatal(err)
	}
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "b"}) // journal 1
	half := d.ckptHalf
	d.ckptHalf = 64
	if _, err := d.CompactNow(); err == nil { // switches to journal 0, stream fails
		t.Fatal("checkpoint into a 64-byte half succeeded")
	}
	d.ckptHalf = half
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "c"}) // journal 0
	c.Close()                                                   // dirty: checkpoint covers only "a"; "b" and "c" span both journals

	d2, err := New(dev)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	c2 := d2.SelfConn()
	defer c2.Close()
	for _, name := range []string{"a", "b", "c"} {
		rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: name})
	}
	if err := d2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryCounterSurvivesCleanReboot regresses a sequence-tie
// bug found driving the real daemon: counters mutate WITHOUT journal
// appends, so a dirty boot's checkpoint and the previous run's commit
// the SAME sequence with different recovery counters.
// Boot used to pick whichever arena half scanned first — after
// recover + dirty reboot + clean shutdown the recovery-pass counter
// went backwards. The commit-generation tie-break pins the newest.
func TestRecoveryCounterSurvivesCleanReboot(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	rt(t, c, &proto.Request{Op: proto.OpRecoverNow}) // Recoveries = 1
	c.Close()                                        // dirty

	d2, err := New(dev) // dirty boot: Recoveries = 2
	if err != nil {
		t.Fatal(err)
	}
	c2 := d2.SelfConn()
	st := rt(t, c2, &proto.Request{Op: proto.OpStat}).Stats
	if st.Recoveries != 2 {
		t.Fatalf("after dirty reboot Recoveries = %d, want 2", st.Recoveries)
	}
	rt(t, c2, &proto.Request{Op: proto.OpShutdown})
	c2.Close()

	d3, err := New(dev) // clean boot: no recovery, no regression
	if err != nil {
		t.Fatal(err)
	}
	c3 := d3.SelfConn()
	defer c3.Close()
	st3 := rt(t, c3, &proto.Request{Op: proto.OpStat}).Stats
	if st3.Recoveries != 2 {
		t.Fatalf("after clean reboot Recoveries = %d, want 2 (counter went backwards)", st3.Recoveries)
	}
}

// TestCompactionUnderLoad: with a tiny journal, concurrent clients
// drive many compaction cycles while requests are in flight — the
// quiesce/stream split, journal switches and the reservation ticket
// chain all run under -race here — and every acked mutation must
// survive a dirty reboot.
func TestCompactionUnderLoad(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev, WithJournalCapacity(16<<10), WithCheckpointChunkBytes(512))
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	const workers, each = 8, 30
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := c.RoundTrip(&proto.Request{
					Op: proto.OpCreatePool, Name: fmt.Sprintf("load-%d-%d", w, i),
				}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	st := rt(t, c, &proto.Request{Op: proto.OpStat}).Stats
	if st.Checkpoints < 2 {
		t.Fatalf("expected several compaction cycles, got %d checkpoints (journal bytes %d)",
			st.Checkpoints, st.JournalBytes)
	}
	c.Close() // dirty reboot

	d2, err := New(dev)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	c2 := d2.SelfConn()
	defer c2.Close()
	st2 := rt(t, c2, &proto.Request{Op: proto.OpStat}).Stats
	if st2.Pools != workers*each {
		t.Fatalf("pools after reboot = %d, want %d", st2.Pools, workers*each)
	}
	if err := d2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// withCheckpointHalf shrinks each checkpoint-arena half to n bytes so
// a modest registry outgrows one.
func withCheckpointHalf(n uint64) Option {
	return func(d *Daemon) { d.ckptHalf = n }
}

// TestOversizedImageNeverWedges: a registry whose image outgrows one
// arena half fails its checkpoint with errCkptFull and nothing else. A
// dirty reboot still composes every pool from the committed checkpoint
// plus both journals, defers its own checkpoint instead of failing the
// boot, and once the registry shrinks the next compaction commits.
func TestOversizedImageNeverWedges(t *testing.T) {
	// 64 KiB halves: 600 pool+puddle pairs (≈ 170 B each) are a ~100 KiB
	// image.
	opts := []Option{withCheckpointHalf(64 << 10), WithCheckpointChunkBytes(2 << 10)}
	const pools = 600
	dev := pmem.New()
	d, err := New(dev, opts...)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	for i := 0; i < pools; i++ {
		resp := rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: fmt.Sprintf("wedge-%03d", i)})
		rt(t, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: resp.Pool, Size: puddle.MinSize})
	}
	if _, err := d.CompactNow(); !errors.Is(err, errCkptFull) {
		t.Fatalf("checkpoint of an oversized registry: err = %v, want errCkptFull", err)
	}
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "journal-only"})
	c.Close() // dirty: the committed checkpoint is the empty first-boot image

	d2, err := New(dev, opts...)
	if err != nil {
		t.Fatalf("reboot over an oversized registry: %v", err)
	}
	c2 := d2.SelfConn()
	defer c2.Close()
	for i := 0; i < pools; i++ {
		opened := rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: fmt.Sprintf("wedge-%03d", i)})
		if len(opened.Puddles) != 2 {
			t.Fatalf("wedge-%03d has %d puddles, want 2", i, len(opened.Puddles))
		}
	}
	rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: "journal-only"})
	if err := d2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The boot checkpoint could not fit one half, so it must have been
	// deferred — not failed, and not committed.
	if n, errs := d2.ckptCount.Load(), d2.persistErrs.Load(); n != 0 || errs != 1 {
		t.Fatalf("boot checkpoint: %d committed, %d failed; want deferred (0, 1)", n, errs)
	}
	for i := 20; i < pools; i++ {
		rt(t, c2, &proto.Request{Op: proto.OpDeletePool, Name: fmt.Sprintf("wedge-%03d", i)})
	}
	if _, err := d2.CompactNow(); err != nil {
		t.Fatalf("checkpoint after shrink (arena still wedged): %v", err)
	}
	c2.Close() // dirty again: compose the fresh checkpoint

	d3, err := New(dev, opts...)
	if err != nil {
		t.Fatalf("second reboot: %v", err)
	}
	c3 := d3.SelfConn()
	defer c3.Close()
	if got := rt(t, c3, &proto.Request{Op: proto.OpStat}).Stats.Pools; got != 21 {
		t.Fatalf("pools after shrink cycle = %d, want 21", got)
	}
	rt(t, c3, &proto.Request{Op: proto.OpOpenPool, Name: "journal-only"})
	if err := d3.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointSizeFollowsLiveRegistry: a checkpoint is one image of
// the live registry, so grant/free churn that leaves the registry the
// same size leaves the checkpoint the same size — a freed puddle costs
// the image nothing.
func TestCheckpointSizeFollowsLiveRegistry(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	defer c.Close()
	pool := rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "churn"})
	for i := 0; i < 30; i++ {
		rt(t, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize})
	}
	compact := func() uint64 {
		t.Helper()
		before := d.ckptBytes.Load()
		if _, err := d.CompactNow(); err != nil {
			t.Fatal(err)
		}
		return d.ckptBytes.Load() - before
	}
	idle := compact()
	for i := 0; i < 1000; i++ {
		pu := rt(t, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize})
		rt(t, c, &proto.Request{Op: proto.OpFreePuddle, UUID: pu.UUID})
	}
	if churned := compact(); churned != idle {
		t.Fatalf("checkpoint after 1000 grant/free pairs streamed %d bytes, after none %d", churned, idle)
	}
}

// TestQuiescentRebootWritesZeroChunks regresses the counters-only
// checkpoint fast path: a reboot cycle in which nothing happened —
// no journal appends, no dirty entities, no recovery — must stream
// zero checkpoint chunks, at boot and at shutdown. Before the fast
// path, the always-captured counters record forced a commit chunk
// per cycle even on a completely idle daemon.
func TestQuiescentRebootWritesZeroChunks(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	// Real registry state, so the skip is not vacuously about an
	// empty store.
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "idle"})
	rt(t, c, &proto.Request{Op: proto.OpShutdown})
	c.Close()

	// Quiescent cycle: boot over the clean image, touch nothing, shut
	// down.
	d2, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	if n := d2.ckptChunks.Load(); n != 0 {
		t.Fatalf("quiescent boot streamed %d checkpoint chunks, want 0", n)
	}
	if n := d2.ckptCount.Load(); n != 0 {
		t.Fatalf("quiescent boot committed %d checkpoints, want 0", n)
	}
	d2.Shutdown()
	if n := d2.ckptChunks.Load(); n != 0 {
		t.Fatalf("quiescent reboot cycle streamed %d checkpoint chunks, want 0", n)
	}
	if n := d2.ckptCount.Load(); n != 0 {
		t.Fatalf("quiescent reboot cycle committed %d checkpoints, want 0", n)
	}

	// The skipped checkpoints must not have lost anything: the pool is
	// still there and the image still boots clean.
	d3, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c3 := d3.SelfConn()
	defer c3.Close()
	rt(t, c3, &proto.Request{Op: proto.OpOpenPool, Name: "idle"})
	if st := rt(t, c3, &proto.Request{Op: proto.OpStat}).Stats; st.Recoveries != 0 {
		t.Fatalf("clean image recovered %d times, want 0 (quiescent shutdown left device dirty)", st.Recoveries)
	}
}
