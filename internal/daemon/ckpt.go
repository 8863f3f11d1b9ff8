// Metadata persistence, checkpoint layer: streamed, chunked, full
// checkpoints.
//
// Checkpoints live in a dedicated arena (pmem.MetaCkptBase) split
// into two halves. A half holds at most one checkpoint: a full image of
// the registry, streamed from the half's offset 0 as CRC-guarded chunks
// with journal-style terminator scanning and published by one commit
// chunk. The protocol:
//
//   - Quiesce (exclusive opMu, O(1)): swap out the pending delta list
//     (the journal records accumulated by markDirty), capture the
//     counter block, and switch journal appends to the other
//     region. No encoding, no device writes, no state copying —
//     the registry itself is a copy-on-write image (d.img) that the
//     plan phase never touches, so the pause is independent of
//     registry size.
//
//   - Stream (request path running): compose the next immutable image
//     from the committed image plus the captured deltas, encode its
//     records into chunks (codec.go), and write them into the half that
//     does NOT hold the committed checkpoint — never by parity, never
//     over the only committed image. Each chunk persists
//     payload+terminator before publishing its header; the checkpoint
//     becomes visible only when its commit chunk lands, so a crash
//     mid-stream leaves the committed checkpoint in the other half
//     intact — and the retired journal region, still readable, carries
//     the entries the failed checkpoint would have covered.
//
// Boot picks the half whose checkpoint commits the highest sequence,
// then folds in both journal regions in base order. An image larger
// than one half fails its stream with errCkptFull; the committed
// checkpoint and the journals still compose the state.
package daemon

import (
	"errors"
	"fmt"
	"hash/crc64"
	"strconv"
	"time"

	"puddles/internal/pmem"
	"puddles/internal/ptypes"
	"puddles/internal/uid"
)

// Chunk header: u32 payload length | u32 kind | u64 payload CRC |
// u64 checkpoint seq | u64 commit generation (commit chunks only).
// Written after the payload and its trailing terminator are durable,
// like a journal entry header.
//
// The generation is a monotonic per-commit counter and exists for one
// reason: counters (recovery passes, logs replayed) mutate WITHOUT
// journal appends, so two checkpoints can commit the same sequence
// number with different counter values — e.g. the boot-time checkpoint
// in one half versus the previous run's in the other. Boot breaks
// sequence ties by generation, so the newest commit always wins.
const (
	ckHdrSize = 32

	// Every chunk payload opens with the metaFormat byte (codec.go).
	ckFull   uint32 = 1 // first chunk of a checkpoint: opens the image
	ckRecs   uint32 = 2 // entity records (one batch)
	ckCommit uint32 = 3 // checkpoint commit marker: full:u8, always 1

	// Kinds 4–7 (a cross-half jump and three spill kinds) and a commit
	// with full = 0 (an incremental checkpoint) belong to an older chain
	// format. Their numbers stay reserved; a CRC-valid chunk of one is
	// refused with ErrMetaFormat, like a retired record kind.
	ckRetiredMin uint32 = 4
	ckRetiredMax uint32 = 7

	// defaultCkptChunk is the target payload size of one streamed chunk.
	defaultCkptChunk = 256 << 10
)

// errCkptFull is returned when a checkpoint image does not fit one
// arena half.
var errCkptFull = errors.New("daemon: checkpoint arena full")

// chainState is the volatile view of the committed checkpoint. Guarded
// by ckptMu (plus exclusive opMu at plan time; boot is
// single-threaded).
type chainState struct {
	half int    // arena half holding the committed checkpoint; -1 = none (fresh image)
	seq  uint64 // sequence the checkpoint covers
	gen  uint64 // generation of its commit (sequence tie-break)
}

// regImage is one immutable copy-on-write generation of the metadata
// registry (the PR 6 range-index pattern applied to the daemon): a
// composed state whose records are never mutated after Store, so the
// streaming phase encodes them with zero locks and the request path
// running. Published behind Daemon.img under ckptMu.
type regImage struct {
	st  *state
	gen uint64
}

// ckptPlan is everything the streaming phase needs, captured under the
// quiesce. With the COW image, capture is O(1): swap out the pending
// delta records and the counter block — no entity is read or copied.
type ckptPlan struct {
	deltas []entRec // journal records since the image; merged back on failure
	seq    uint64   // d.seq at quiesce: the sequence this checkpoint covers
	gen    uint64   // commit generation (chain.gen + 1)
	half   int      // half the image streams into: the one not holding the committed checkpoint
	ctrs   counters // counter block captured by this plan
}

func (d *Daemon) ckptHalfBase(half int) pmem.Addr {
	return pmem.MetaCkptBase + pmem.Addr(uint64(half)*d.ckptHalf)
}

// markDirty accumulates the (immutable — see entRec) records of one
// durable journal batch as deltas on top of the committed registry
// image. The caller still holds the locks of every entity
// named in recs — the same guarantee that orders the journal — so the
// pending list replays per entity in journal order.
func (d *Daemon) markDirty(recs []entRec) {
	d.pendMu.Lock()
	d.pending = append(d.pending, recs...)
	d.pendMu.Unlock()
}

// RegistryGen returns the generation of the committed registry image.
func (d *Daemon) RegistryGen() uint64 {
	if img := d.img.Load(); img != nil {
		return img.gen
	}
	return 0
}

// clone returns a copy safe to encode while the original keeps
// mutating under sessMu.
func (s *ImportSession) clone() *ImportSession {
	cp := *s
	cp.Puddles = append([]ImportPuddle(nil), s.Puddles...)
	return &cp
}

// planCheckpoint is the quiesce phase: pick the half that does not
// hold the committed checkpoint, swap out the pending delta records,
// capture the counter block and (when allowed and safe) switch journal
// appends to the other region. The caller holds ckptMu and either
// holds opMu exclusively or is the single boot goroutine. With the COW
// image this is O(1): no entity is read, copied or encoded under the
// quiesce, so the exclusive pause is independent of registry size (the
// ckpt and fences benchmarks measure this).
func (d *Daemon) planCheckpoint(allowSwitch bool) *ckptPlan {
	p := &ckptPlan{seq: d.seq, gen: d.chain.gen + 1}
	if d.chain.half == 0 {
		p.half = 1
	}
	d.pendMu.Lock()
	p.deltas = d.pending
	d.pending = nil
	d.pendMu.Unlock()
	p.ctrs = *d.countersVal()
	// Switch appends to the other journal so the retired region's
	// tail is reclaimed once this checkpoint commits. Safe only when
	// the other region's old entries are covered by the COMMITTED
	// checkpoint — i.e. the checkpoint the active region builds on has
	// committed. If a previous stream failed, skip the switch: this
	// checkpoint still commits coverage, and the next compaction
	// switches.
	if allowSwitch && d.jBaseSeq <= d.chain.seq {
		d.switchJournal(p.seq)
	}
	return p
}

// cloneState deep-copies the mutable records of st into a fresh image
// state (puddle and log-space records are immutable after creation and
// shared by pointer). Boot-only, single-threaded — live PoolRecs are
// snapshotted without their locks.
func cloneState(src *state) *state {
	dst := newState()
	dst.Seq = src.Seq
	dst.NextSession = src.NextSession
	dst.Recoveries = src.Recoveries
	dst.LogsReplayed = src.LogsReplayed
	dst.EntriesApplied = src.EntriesApplied
	dst.Imports = src.Imports
	for name, p := range src.Pools {
		dst.Pools[name] = p.snapshot()
	}
	for u, rec := range src.Puddles {
		dst.Puddles[u] = rec
	}
	for u, ls := range src.LogSpaces {
		dst.LogSpaces[u] = ls
	}
	for id, s := range src.Sessions {
		dst.Sessions[id] = s.clone()
	}
	// Moved and done records never change; out records do (phase flips
	// replace a field in place), so the image gets its own copy of those.
	for u, m := range src.MigsOut {
		cp := *m
		dst.MigsOut[u] = &cp
	}
	for name, m := range src.Moved {
		dst.Moved[name] = m
	}
	for u, m := range src.MigsDone {
		dst.MigsDone[u] = m
	}
	dst.Types = append([]ptypes.TypeInfo(nil), src.Types...)
	return dst
}

// composeImage builds the next registry image: a fresh state whose
// maps start as shallow copies of prev (sharing the immutable records)
// and then absorb the delta records in order. A delta's value is
// installed by pointer — nothing is decoded or copied on this path — and
// a pool touched by a membership delta is cloned before its first edit
// (applyRec), so neither prev, which stays a valid published image
// throughout, nor a delta, which may be composed again after a failed
// stream, is ever written.
func composeImage(prev *state, deltas []entRec, seq uint64) *state {
	next := newState()
	next.Seq = seq
	next.NextSession = prev.NextSession
	next.Recoveries = prev.Recoveries
	next.LogsReplayed = prev.LogsReplayed
	next.EntriesApplied = prev.EntriesApplied
	next.Imports = prev.Imports
	for name, p := range prev.Pools {
		next.Pools[name] = p
	}
	for u, rec := range prev.Puddles {
		next.Puddles[u] = rec
	}
	for u, ls := range prev.LogSpaces {
		next.LogSpaces[u] = ls
	}
	for id, s := range prev.Sessions {
		next.Sessions[id] = s
	}
	for u, m := range prev.MigsOut {
		next.MigsOut[u] = m
	}
	for name, m := range prev.Moved {
		next.Moved[name] = m
	}
	for u, m := range prev.MigsDone {
		next.MigsDone[u] = m
	}
	next.Types = prev.Types
	owned := make(map[string]bool)
	for i := range deltas {
		applyRec(next, &deltas[i], owned)
	}
	return next
}

// writeChunk appends one chunk to a chain: payload and trailing
// terminator persist first, then the header publishes under its own
// fence, so the boot scan never reads past a torn chunk. gen is only
// meaningful on commit chunks (0 otherwise).
func (d *Daemon) writeChunk(half int, off uint64, kind uint32, seq, gen uint64, payload []byte) (uint64, error) {
	need := uint64(ckHdrSize) + uint64(len(payload)) + ckHdrSize
	if off+need > d.ckptHalf {
		return 0, errCkptFull
	}
	base := d.ckptHalfBase(half) + pmem.Addr(off)
	var fs pmem.FlushSet
	d.dev.Store(base+ckHdrSize, payload)
	fs.Add(base+ckHdrSize, len(payload))
	term := base + ckHdrSize + pmem.Addr(len(payload))
	d.dev.StoreU64(term, 0)
	d.dev.StoreU64(term+8, 0)
	fs.Add(term, ckHdrSize)
	fs.Flush(d.dev)
	d.dev.Fence()
	d.dev.StoreU32(base, uint32(len(payload)))
	d.dev.StoreU32(base+4, kind)
	d.dev.StoreU64(base+8, crc64.Checksum(payload, crcTable))
	d.dev.StoreU64(base+16, seq)
	d.dev.StoreU64(base+24, gen)
	d.dev.Persist(base, ckHdrSize)
	d.ckptChunks.Add(1)
	d.ckptBytes.Add(uint64(ckHdrSize) + uint64(len(payload)))
	return off + uint64(ckHdrSize) + uint64(len(payload)), nil
}

// streamCheckpoint is the streaming phase: compose the next registry
// image from the committed image plus the plan's deltas, encode its
// records into chunks from offset 0 of the planned half, and commit.
// The caller holds ckptMu; the request path may be running — nothing
// here reads live daemon state: every record encoded belongs to an
// immutable image.
func (d *Daemon) streamCheckpoint(p *ckptPlan) error {
	next := composeImage(d.img.Load().st, p.deltas, p.seq)
	// Records append straight into the chunk being filled; the first
	// write error latches and turns the remaining emits into no-ops.
	var (
		off  uint64
		werr error
	)
	kind := ckFull // the first chunk opens the image at boot
	chunk := []byte{metaFormat}
	flush := func() {
		if werr != nil || len(chunk) == 1 {
			return
		}
		off, werr = d.writeChunk(p.half, off, kind, p.seq, 0, chunk)
		kind = ckRecs
		chunk = chunk[:1]
	}
	emit := func(er entRec) {
		if werr != nil {
			return
		}
		chunk = appendRec(chunk, &er)
		if len(chunk) >= d.ckptChunk {
			flush()
		}
	}
	for name, pr := range next.Pools {
		emit(putRec(recPool, name, pr))
	}
	for u, rec := range next.Puddles {
		emit(putRec(recPuddle, uuidKey(u), rec))
	}
	for u, ls := range next.LogSpaces {
		emit(putRec(recLogSpace, uuidKey(u), ls))
	}
	for id, s := range next.Sessions {
		emit(putRec(recSession, strconv.FormatUint(id, 10), s))
	}
	for u, m := range next.MigsOut {
		emit(putRec(recMigOut, uuidKey(u), m))
	}
	for name, m := range next.Moved {
		emit(putRec(recMoved, name, m))
	}
	for u, m := range next.MigsDone {
		emit(putRec(recMigDone, uuidKey(u), m))
	}
	emit(putRec(recTypes, "", typeList(next.Types)))
	// Counters stream last (recovery mutates them without journaling),
	// which also guarantees the image of an empty registry still opens
	// with a ckFull chunk.
	emit(putRec(recCounters, "", &p.ctrs))
	flush()
	if werr != nil {
		return werr
	}
	if _, err := d.writeChunk(p.half, off, ckCommit, p.seq, p.gen, []byte{metaFormat, 1}); err != nil {
		return err
	}
	// Committed: the checkpoint covers p.seq and the captured counters,
	// and the composed image becomes the published registry generation.
	d.chain = chainState{half: p.half, seq: p.seq, gen: p.gen}
	d.chainCounters = p.ctrs
	d.img.Store(&regImage{st: next, gen: p.gen})
	d.ckptCount.Add(1)
	d.ckptSeq.Store(p.seq)
	return nil
}

// abandonCheckpoint unwinds a failed streaming phase: the captured
// deltas merge back IN FRONT of anything the request path accumulated
// since the plan (journal order must be preserved) and the failure is
// counted. The plan phase had no other side effects: d.seq was never
// bumped and the committed image was never replaced, so journal
// sequencing is unperturbed.
func (d *Daemon) abandonCheckpoint(p *ckptPlan, err error) {
	if len(p.deltas) > 0 {
		d.pendMu.Lock()
		merged := make([]entRec, 0, len(p.deltas)+len(d.pending))
		merged = append(merged, p.deltas...)
		merged = append(merged, d.pending...)
		d.pending = merged
		d.pendMu.Unlock()
	}
	d.persistErrs.Add(1)
	d.logf("checkpoint: %v", err)
}

// scanResult is one half's committed checkpoint as recovered by
// scanHalf.
type scanResult struct {
	st  *state
	gen uint64
}

// scanHalf reads one arena half's checkpoint: a ckFull chunk at offset
// 0, any number of ckRecs chunks, a ckCommit chunk, then the
// terminator. A checkpoint that was still streaming at the crash has no
// commit and yields nothing. A torn chunk, a chunk of an unknown kind,
// or records or a commit with no image open end the scan exactly like a
// torn journal entry, and so does a chunk whose CRC holds but whose
// payload does not decode (logged and counted, like its journal twin in
// replayRegion) — a chunk applies whole or not at all. A CRC-valid chunk
// this format cannot hold is an image this daemon must refuse with
// ErrMetaFormat, never skip: another format byte, a retired record, a
// retired chunk kind (4–7), a commit with full = 0, or any chunk after
// the commit. The last three are an older daemon's chain, and skipping
// its increments would silently drop committed metadata.
func (d *Daemon) scanHalf(half int) (scanResult, bool, error) {
	var (
		sr  scanResult
		off uint64
		img *state // opened by the ckFull chunk; published into sr by the commit
	)
	for off+ckHdrSize <= d.ckptHalf {
		base := d.ckptHalfBase(half) + pmem.Addr(off)
		n := uint64(d.dev.LoadU32(base))
		kind := d.dev.LoadU32(base + 4)
		if n == 0 || off+ckHdrSize+n > d.ckptHalf {
			break
		}
		payload := make([]byte, n)
		d.dev.Load(base+ckHdrSize, payload)
		if crc64.Checksum(payload, crcTable) != d.dev.LoadU64(base+8) {
			break
		}
		seq := d.dev.LoadU64(base + 16)
		refuse := func(why string) (scanResult, bool, error) {
			return scanResult{}, false, fmt.Errorf("%w: checkpoint chunk in half %d at offset %d (kind %d, seq %d): %s",
				ErrMetaFormat, half, off, kind, seq, why)
		}
		if sr.st != nil {
			return refuse("a chunk after the commit (an incremental checkpoint; retired)")
		}
		if kind < ckFull || kind > ckRetiredMax {
			break
		}
		if payload[0] != metaFormat {
			return refuse(fmt.Sprintf("format byte %#x, want %#x", payload[0], metaFormat))
		}
		if kind >= ckRetiredMin {
			return refuse("a cross-half jump or spill chunk (retired)")
		}
		body := payload[1:]
		if kind == ckCommit {
			if len(body) == 1 && body[0] == 0 {
				return refuse("an incremental commit (retired)")
			}
			if img == nil {
				break
			}
			if len(body) != 1 || body[0] != 1 {
				d.undecodableChunk(half, off, seq, errRange)
				break
			}
			img.Seq = seq
			sr = scanResult{st: img, gen: d.dev.LoadU64(base + 24)}
		} else {
			if (img != nil) == (kind == ckFull) {
				break // records with no image open, or a second image start
			}
			b, err := decodeBatch(body, nil)
			if errors.Is(err, ErrMetaFormat) {
				return scanResult{}, false, fmt.Errorf("checkpoint chunk in half %d at offset %d: %w", half, off, err)
			}
			if err != nil {
				d.undecodableChunk(half, off, seq, err)
				break
			}
			if img == nil {
				img = newState()
			}
			applyBatchTo(img, b)
		}
		off += ckHdrSize + n
	}
	return sr, sr.st != nil, nil
}

// undecodableChunk counts and logs a CRC-valid chunk whose payload does
// not decode; the scan ends there.
func (d *Daemon) undecodableChunk(half int, off, seq uint64, err error) {
	d.jDecodeErrs.Add(1)
	d.logf("boot: checkpoint chunk in half %d at offset %d seq %d does not decode (%v); checkpoint ends there",
		half, off, seq, err)
}

func newState() *state {
	return &state{
		Pools:     make(map[string]*PoolRec),
		Puddles:   make(map[uid.UUID]*PuddleRec),
		LogSpaces: make(map[uid.UUID]*LogSpaceRec),
		Sessions:  make(map[uint64]*ImportSession),
		MigsOut:   make(map[uid.UUID]*MigOutRec),
		Moved:     make(map[string]*MovedRec),
		MigsDone:  make(map[uid.UUID]*MigDoneRec),
	}
}

// notePause records one exclusive-quiesce hold for Stats.
func (d *Daemon) notePause(pause time.Duration) {
	ns := uint64(pause.Nanoseconds())
	d.ckptPauseTotal.Add(ns)
	for {
		cur := d.ckptPauseMax.Load()
		if ns <= cur || d.ckptPauseMax.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// errDaemonClosed is returned by compaction entry points after
// Shutdown.
var errDaemonClosed = errors.New("daemon is shut down")

// compactCycle runs one quiesce+stream checkpoint cycle. force skips
// the high-water re-check. The caller holds ckptMu; opMu is held —
// panic-safe, injected crashes unwind through here — only for the
// plan phase. Returns the exclusive pause (0 if the cycle skipped).
func (d *Daemon) compactCycle(force bool) (time.Duration, error) {
	start := time.Now()
	var (
		p       *ckptPlan
		skipErr error
	)
	func() {
		d.opMu.Lock()
		defer d.opMu.Unlock()
		switch {
		case d.closed.Load():
			skipErr = errDaemonClosed
		case !force && d.jTailApprox.Load() < d.journalHighWater() && !d.needCompact.Load():
			// another worker compacted while we waited
		default:
			d.needCompact.Store(false)
			p = d.planCheckpoint(true)
		}
	}()
	if p == nil {
		return 0, skipErr
	}
	pause := time.Since(start)
	d.notePause(pause)
	if err := d.streamCheckpoint(p); err != nil {
		d.abandonCheckpoint(p, err)
		return pause, err
	}
	return pause, nil
}

// maybeCompact checkpoints and reclaims the journal once the active
// region passes the high-water mark (or an append failed for space).
// Called from request workers with no daemon locks held. Only one
// worker streams at a time (ckptMu); the exclusive opMu hold is
// confined to the plan phase — see planCheckpoint.
func (d *Daemon) maybeCompact() {
	if d.jTailApprox.Load() < d.journalHighWater() && !d.needCompact.Load() {
		return
	}
	if !d.ckptMu.TryLock() {
		return // a checkpoint is already streaming
	}
	defer d.ckptMu.Unlock()
	if _, err := d.compactCycle(false); err != nil && !errors.Is(err, errDaemonClosed) {
		d.logf("compaction: %v", err)
	}
}

// CompactNow forces one checkpoint + journal-reclaim cycle regardless
// of the high-water mark and reports how long the daemon was quiesced
// (the exclusive opMu hold — the pause every in-flight request eats).
// Tools and the ckpt benchmark use it to measure compaction pause
// against registry size.
func (d *Daemon) CompactNow() (time.Duration, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return d.compactCycle(true)
}

// counterOnlyQuiescent reports whether a new checkpoint would add
// nothing over the committed checkpoint: no journal appends since its
// commit (sequence equality), no pending deltas, and — because
// recovery mutates counters without journaling — an unchanged counter
// block. When it holds, a quiescent boot or shutdown can skip its
// checkpoint entirely (zero chunks written); previously the
// always-captured counters record forced a commit chunk even for a
// completely idle reboot cycle. The caller holds ckptMu and either
// opMu exclusively or is the single boot goroutine.
func (d *Daemon) counterOnlyQuiescent() bool {
	if d.chain.half < 0 || d.seq != d.chain.seq {
		return false
	}
	d.pendMu.Lock()
	clean := len(d.pending) == 0
	d.pendMu.Unlock()
	return clean && *d.countersVal() == d.chainCounters
}

// checkpointSync plans and streams one checkpoint while the daemon is
// already quiesced (boot, shutdown, forced recovery): there is no
// request path to overlap with, so the two phases just run back to
// back. The caller holds ckptMu and either opMu exclusively or is the
// single boot goroutine. The journal is never switched here — callers
// that need a reset do it explicitly after the commit (boot), or rely
// on the next compaction (shutdown images re-checkpoint at boot
// anyway).
func (d *Daemon) checkpointSync() error {
	p := d.planCheckpoint(false)
	if err := d.streamCheckpoint(p); err != nil {
		d.abandonCheckpoint(p, err)
		return err
	}
	return nil
}
