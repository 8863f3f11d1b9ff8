// Metadata persistence, checkpoint layer: streamed, incremental,
// chunked checkpoints.
//
// Checkpoints live in a dedicated arena (pmem.MetaCkptBase) split
// into two halves. A half holds a checkpoint *chain*: one full
// checkpoint followed by incremental checkpoints, each streamed as
// CRC-guarded chunks with journal-style terminator scanning. The
// protocol:
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
//     from the committed image plus the captured deltas, encode the
//     records into chunks (codec.go), and append them to the chain. Each
//     chunk persists payload+terminator before publishing its header;
//     the checkpoint as a whole becomes visible only when its final
//     commit chunk lands, so a crash mid-stream leaves the previous
//     committed chain intact — and the retired journal region, still
//     readable, carries the entries the failed checkpoint would have
//     covered.
//
//   - Full checkpoints start a new chain in the OTHER half — slot
//     selection alternates away from the half holding the last valid
//     chain, never by parity — and are planned when no chain exists,
//     the chain's half is filling up, or the chain has grown long
//     enough that boot-time composition would drag.
//
// Boot picks the half whose chain commits the highest sequence,
// composes full + committed increments, then folds in both journal
// regions in base order.
//
// Chunks spill across a 32 MiB half instead of having to fit one slot,
// and a FULL image that outgrows even its own half writes a ckJump
// chunk and continues in the dead region of the other half (spill
// chunk kinds, ckSFull..), so a large registry cannot wedge
// compaction. The quiesce pause is O(1) — independent of both the
// registry size and the dirty set (benchrunner ckpt and fences
// measure exactly this).
package daemon

import (
	"encoding/binary"
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
// number with different counter values — e.g. the boot-time full
// checkpoint in one half versus the previous run's chain in the
// other. Boot breaks sequence ties by generation, so the newest
// commit always wins.
const (
	ckHdrSize = 32

	// Every chunk payload opens with the metaFormat byte (codec.go).
	ckFull   uint32 = 1 // first chunk of a full checkpoint: reset composed state
	ckRecs   uint32 = 2 // entity records (one batch)
	ckCommit uint32 = 3 // checkpoint commit marker: full:u8
	ckJump   uint32 = 4 // cross-half continuation: payload is the target offset

	// Spill-region chunk kinds: the same stream states as 1–3, branded
	// so a from-zero scan of a half NEVER walks into another chain's
	// spill extent (it terminates on kind ≥ ckSFull), and a jump-follow
	// accepts ONLY them. Without the brand, a dead chain's head whose
	// tail terminator was overwritten by a later chain's spill would
	// compose a frankenstate from two different checkpoint lineages.
	ckSFull   uint32 = 5
	ckSRecs   uint32 = 6
	ckSCommit uint32 = 7

	// ckJumpPayload is the jump chunk payload: the format byte and the
	// u64 target offset in the other half (the seq/gen of the spilling
	// checkpoint ride in the chunk header and must match the first chunk
	// at the target).
	ckJumpPayload = 1 + 8

	// ckJumpNeed is the arena room a jump chunk occupies; full
	// checkpoints reserve it below their head-half limit so the jump
	// always fits when the image overflows.
	ckJumpNeed = ckHdrSize + ckJumpPayload + ckHdrSize

	// defaultCkptChunk is the target payload size of one streamed chunk.
	defaultCkptChunk = 256 << 10

	// maxChainIncs bounds the increments per chain so boot-time
	// composition stays short; past it the next checkpoint goes full.
	maxChainIncs = 64
)

// errCkptFull is returned when a checkpoint does not fit the arena
// room available to it. An incremental checkpoint retries as a full
// one; a full checkpoint hitting this means the state has outgrown
// BOTH halves combined minus the live chain's extents — full images
// larger than one half spill across the arena (see ckptWriter) instead
// of wedging at the old 32 MiB half ceiling.
var errCkptFull = errors.New("daemon: checkpoint arena full")

// chainState is the volatile view of the committed checkpoint chain.
// Guarded by ckptMu (plus exclusive opMu at plan time; boot is
// single-threaded). A chain occupies a head extent [0, headEnd) in its
// half and, when its full image overflowed that half, a spill extent
// [spillStart, …) in the OTHER half reached through a ckJump chunk;
// increments then append in the spill extent.
type chainState struct {
	half       int    // arena half holding the chain head; -1 = none (fresh image)
	seq        uint64 // sequence the chain's last commit covers
	gen        uint64 // generation of the chain's last commit (sequence tie-break)
	tail       uint64 // next-append offset (in half, or in 1-half when spilled)
	incs       int    // committed increments since the chain's full checkpoint
	headEnd    uint64 // committed bytes in the head half [0, headEnd)
	spilled    bool   // the chain continues in the other half
	spillStart uint64 // start of the spill extent in 1-half (valid when spilled)
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
	full   bool
	deltas []entRec // journal records since the image; merged back on failure
	seq    uint64   // d.seq at quiesce: the sequence this checkpoint covers
	gen    uint64   // commit generation (chain.gen + 1)
	half   int      // half the stream starts in (full: the new head half)
	tail   uint64   // starting offset within half
	incs   int      // chain increment count after this checkpoint commits
	ctrs   counters // counter block captured by this plan

	headLimit  uint64 // hard stop in half (a live spill may cap it)
	canSpill   bool   // fulls may continue into the other half
	spillMin   uint64 // first dead byte of 1-half (live chain's end there)
	spillKinds bool   // already in a spill extent: write ckS* kinds
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

// planCheckpoint is the quiesce phase: decide full vs incremental,
// swap out the pending delta records, capture the counter block and
// (when allowed and safe) switch journal appends to the other
// region. The caller holds ckptMu and either holds opMu exclusively or
// is the single boot goroutine. With the COW image this is O(1) —
// full checkpoints included: no entity is read, copied or encoded
// under the quiesce, so the exclusive pause is independent of registry
// size on BOTH paths (the ckpt and fences benchmarks measure this).
func (d *Daemon) planCheckpoint(wantFull, allowSwitch bool) *ckptPlan {
	p := &ckptPlan{seq: d.seq, gen: d.chain.gen + 1}
	p.full = wantFull || d.forceFull || d.chain.half < 0 ||
		d.chain.incs >= maxChainIncs || d.chain.tail > d.ckptHalf-d.ckptHalf/4
	if p.full {
		// Alternate away from the half holding the last valid chain
		// head — never overwrite the only committed checkpoint in
		// place. The head extent is capped by the live chain's spill
		// (if it has one, it sits in our half); our own spill may use
		// the other half beyond the live chain's committed bytes.
		p.half = 0
		if d.chain.half == 0 {
			p.half = 1
		}
		p.tail, p.incs = 0, 0
		p.headLimit = d.ckptHalf
		p.canSpill = true
		if d.chain.half >= 0 {
			if d.chain.spilled {
				p.headLimit = d.chain.spillStart
				p.spillMin = d.chain.headEnd
			} else {
				p.spillMin = d.chain.tail
			}
		}
	} else {
		p.half, p.tail, p.incs = d.chain.half, d.chain.tail, d.chain.incs+1
		p.headLimit = d.ckptHalf
		if d.chain.spilled {
			// The chain's cursor lives in its spill extent.
			p.half = 1 - d.chain.half
			p.spillKinds = true
		}
	}
	d.pendMu.Lock()
	p.deltas = d.pending
	d.pending = nil
	d.pendMu.Unlock()
	p.ctrs = *d.countersVal()
	// Switch appends to the other journal so the retired region's
	// tail is reclaimed once this checkpoint commits. Safe only when
	// the other region's old entries are covered by the COMMITTED chain —
	// i.e. the checkpoint the active region builds on has committed. If
	// a previous stream failed, skip the switch: this checkpoint still
	// commits coverage, and the next compaction switches.
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

// dedupDeltas drops superseded delta records for an incremental
// checkpoint: per entity the last whole-record put/tombstone wins, and
// membership deltas survive only when no later whole-pool record
// covers them. Order is preserved — replay composes link deltas onto
// the pool record exactly as the journal did.
func dedupDeltas(recs []entRec) []entRec {
	type ek struct {
		kind recKind
		key  string
	}
	keep := make([]bool, len(recs))
	n := 0
	seen := make(map[ek]bool)
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		switch r.Kind {
		case recPoolLink, recPoolUnlink:
			if !seen[ek{recPool, r.Key}] {
				keep[i] = true
				n++
			}
		case recTypes, recCounters:
			k := ek{r.Kind, ""}
			if !seen[k] {
				keep[i], seen[k] = true, true
				n++
			}
		default:
			k := ek{r.Kind, r.Key}
			if !seen[k] {
				keep[i], seen[k] = true, true
				n++
			}
		}
	}
	if n == len(recs) {
		return recs
	}
	out := make([]entRec, 0, n)
	for i, r := range recs {
		if keep[i] {
			out = append(out, r)
		}
	}
	return out
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

// ckptWriter appends chunks within the extents a plan budgeted. A
// full checkpoint that overflows its head half buffers the remaining
// chunks (including the commit), then finish() writes a ckJump chunk
// (room for which is reserved under the head limit) and lands the
// buffered chunks RIGHT-JUSTIFIED against the end of the other half,
// using the spill chunk kinds. Right justification matters: the spill
// occupies only the far end of the other half, so the NEXT full
// checkpoint — whose head must start at that half's offset zero — has
// the maximum possible head room. A left-justified spill sitting just
// past the dead chain's tail would leave the next full a few hundred
// bytes of head and wedge compaction permanently; right-justified,
// the arena un-wedges as soon as live+new images fit it again.
// Anything overflowing without spill permission is errCkptFull.
type ckptWriter struct {
	d          *Daemon
	half       int
	off        uint64
	limit      uint64
	seq, gen   uint64
	spillKinds bool
	canSpill   bool
	spillMin   uint64 // lowest dead byte in the other half (live chain end)

	buffering bool
	buf       []spillChunk

	spilled    bool
	headEnd    uint64
	spillStart uint64
	tail       uint64
}

type spillChunk struct {
	kind    uint32
	payload []byte
}

func (w *ckptWriter) write(kind uint32, payload []byte) error {
	if w.buffering {
		w.buf = append(w.buf, spillChunk{kind, payload})
		return nil
	}
	need := uint64(ckHdrSize) + uint64(len(payload)) + ckHdrSize
	limit := w.limit
	if w.canSpill {
		limit -= ckJumpNeed // the jump must always fit after the last data chunk
	}
	if w.off+need > limit {
		if !w.canSpill {
			return errCkptFull
		}
		w.buffering = true
		w.buf = append(w.buf, spillChunk{kind, payload})
		return nil
	}
	k := kind
	if w.spillKinds {
		k += ckSFull - ckFull
	}
	gen := uint64(0)
	if kind == ckCommit {
		gen = w.gen
	}
	next, err := w.d.writeChunk(w.half, w.off, k, w.seq, gen, payload)
	if err != nil {
		return err
	}
	w.off = next
	return nil
}

// finish lands any buffered spill and reports the chain extents. The
// commit chunk is always the last write(), so nothing in the spill —
// least of all the commit — is visible before every byte persisted.
func (w *ckptWriter) finish() error {
	if !w.buffering {
		w.tail, w.headEnd, w.spilled = w.off, w.off, false
		return nil
	}
	total := uint64(ckHdrSize) // trailing terminator after the last chunk
	for _, c := range w.buf {
		total += uint64(ckHdrSize) + uint64(len(c.payload))
	}
	if total > w.d.ckptHalf {
		return errCkptFull
	}
	spillOff := w.d.ckptHalf - total
	if spillOff < w.spillMin {
		return errCkptFull // would overwrite the live chain's bytes
	}
	jp := binary.LittleEndian.AppendUint64([]byte{metaFormat}, spillOff)
	next, err := w.d.writeChunk(w.half, w.off, ckJump, w.seq, w.gen, jp)
	if err != nil {
		return err
	}
	w.headEnd = next
	w.d.ckptSpills.Add(1)
	o := spillOff
	for i, c := range w.buf {
		gen := uint64(0)
		// The first spill chunk carries the seq+gen brand the boot scan
		// verifies against the jump header; the commit carries gen always.
		if i == 0 || c.kind == ckCommit {
			gen = w.gen
		}
		o, err = w.d.writeChunk(1-w.half, o, c.kind+(ckSFull-ckFull), w.seq, gen, c.payload)
		if err != nil {
			return err
		}
	}
	w.spilled, w.spillStart, w.tail = true, spillOff, o
	return nil
}

// streamCheckpoint is the streaming phase: compose the next registry
// image from the committed image plus the plan's deltas, encode the
// records into chunks, append them to the planned chain position, and
// commit. The caller holds ckptMu; the request path may be running —
// nothing here reads live daemon state: every record encoded belongs
// to an immutable image or is an immutable journal delta.
func (d *Daemon) streamCheckpoint(p *ckptPlan) error {
	img := d.img.Load()
	next := composeImage(img.st, p.deltas, p.seq)
	w := &ckptWriter{
		d: d, half: p.half, off: p.tail, limit: p.headLimit,
		seq: p.seq, gen: p.gen, spillKinds: p.spillKinds,
		canSpill: p.canSpill, spillMin: p.spillMin,
	}
	kind := ckRecs
	if p.full {
		kind = ckFull // first chunk resets the composed state at boot
	}
	// Records append straight into the chunk being filled; the first
	// write error latches and turns the remaining emits into no-ops.
	var werr error
	chunk := []byte{metaFormat}
	flush := func() {
		if werr != nil || len(chunk) == 1 {
			return
		}
		werr = w.write(kind, chunk)
		kind = ckRecs
		// A fresh buffer, as big as the last one grew: the writer may be
		// holding that one for a spill.
		chunk = append(make([]byte, 0, cap(chunk)), metaFormat)
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
	if p.full {
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
	} else {
		for _, er := range dedupDeltas(p.deltas) {
			if er.Kind != recCounters { // superseded by the plan's capture, emitted below
				emit(er)
			}
		}
	}
	// Counters stream last and unconditionally (recovery mutates them
	// without journaling), which also guarantees a full checkpoint of
	// an empty registry still opens its section.
	emit(putRec(recCounters, "", &p.ctrs))
	flush()
	if werr != nil {
		return werr
	}
	commit := []byte{metaFormat, 0}
	if p.full {
		commit[1] = 1
	}
	if err := w.write(ckCommit, commit); err != nil {
		return err
	}
	if err := w.finish(); err != nil {
		return err
	}
	// Committed: the chain now covers p.seq and the captured counters,
	// and the composed image becomes the published registry generation.
	cs := chainState{seq: p.seq, gen: p.gen, incs: p.incs, tail: w.tail}
	if p.full {
		cs.half = p.half
		cs.spilled, cs.spillStart, cs.headEnd = w.spilled, w.spillStart, w.headEnd
	} else {
		cs.half = d.chain.half
		cs.spilled, cs.spillStart, cs.headEnd = d.chain.spilled, d.chain.spillStart, d.chain.headEnd
		if !d.chain.spilled {
			cs.headEnd = w.tail
		}
	}
	d.chain = cs
	d.chainCounters = p.ctrs
	d.img.Store(&regImage{st: next, gen: p.gen})
	if p.full {
		d.forceFull = false
	}
	d.ckptCount.Add(1)
	d.ckptSeq.Store(p.seq)
	return nil
}

// abandonCheckpoint unwinds a failed streaming phase: the captured
// deltas merge back IN FRONT of anything the request path accumulated
// since the plan (journal order must be preserved), the failure is
// counted, and — when an increment ran out of chain space — the next
// compaction is told to go full in the other half. The plan phase had
// no other side effects: d.seq was never bumped and the committed
// image was never replaced, so journal sequencing is unperturbed.
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
	if errors.Is(err, errCkptFull) && !p.full {
		d.forceFull = true
		d.needCompact.Store(true)
	}
	d.logf("checkpoint: %v", err)
}

// scanResult is one half's committed chain as recovered by scanHalf:
// the composed state plus the chain's physical extent (including a
// spill continuation in the other half, if the full section jumped).
type scanResult struct {
	st         *state
	gen        uint64
	incs       int
	tail       uint64 // end of committed bytes (spill half if spilled)
	headEnd    uint64 // end of committed bytes in the head half
	spilled    bool
	spillStart uint64 // first spill byte in the other half
}

// scanHalf reads one arena half's checkpoint chain: a full section
// (opened by a ckFull chunk) followed by committed increments. The
// full section may end in a ckJump chunk, continuing with spill-kind
// chunks in the other half; the first chunk after a jump must carry
// the jumping checkpoint's seq+gen brand, so a dead head half can
// never stitch onto another chain's live spill (generations are
// strictly monotonic across commits). Chunks after the last commit —
// a checkpoint that was still streaming at the crash — are ignored;
// any torn chunk, out-of-place kind, or second jump ends the scan
// exactly like a torn journal entry, and so does a chunk whose CRC
// holds but whose payload does not decode (logged and counted, like
// its journal twin in replayRegion) — a chunk applies whole or not at
// all. A CRC-valid chunk in another metadata format, or one holding a
// retired record, is not the end of a chain but an image this daemon
// must refuse: ErrMetaFormat.
func (d *Daemon) scanHalf(half int) (scanResult, bool, error) {
	var (
		sr         scanResult
		h          = half
		off        uint64
		cur        *state
		pending    [][]entRec
		pendFull   bool
		opened     bool // a ckFull chunk has been seen (chains start full)
		inSpill    bool
		jumped     bool
		verify     bool // next chunk must brand-match the jump
		jSeq, jGen uint64
		headEnd    uint64 // offset after the jump chunk in the head half
		spillStart uint64
	)
scan:
	for {
		if off+ckHdrSize > d.ckptHalf {
			break
		}
		base := d.ckptHalfBase(h) + pmem.Addr(off)
		n := uint64(d.dev.LoadU32(base))
		kind := d.dev.LoadU32(base + 4)
		if n == 0 || off+ckHdrSize+n > d.ckptHalf {
			break
		}
		if inSpill {
			if kind < ckSFull || kind > ckSCommit {
				break // ran off the spill into foreign or dead bytes
			}
			kind -= ckSFull - ckFull
		} else if kind < ckFull || kind > ckJump {
			// Spill kinds at a from-zero scan position belong to some
			// other chain's spill extent, not to this chain.
			break
		}
		payload := make([]byte, n)
		d.dev.Load(base+ckHdrSize, payload)
		if crc64.Checksum(payload, crcTable) != d.dev.LoadU64(base+8) {
			break
		}
		if payload[0] != metaFormat {
			return scanResult{}, false, fmt.Errorf("%w: checkpoint chunk in half %d at offset %d has format byte %#x, want %#x",
				ErrMetaFormat, h, off, payload[0], metaFormat)
		}
		body := payload[1:]
		seq := d.dev.LoadU64(base + 16)
		genHdr := d.dev.LoadU64(base + 24)
		undecodable := func(err error) {
			d.jDecodeErrs.Add(1)
			d.logf("boot: checkpoint chunk in half %d at offset %d seq %d does not decode (%v); chain ends there",
				h, off, seq, err)
		}
		if verify {
			if seq != jSeq || genHdr != jGen {
				break // stale spill from a different checkpoint lineage
			}
			verify = false
		}
		if kind == ckJump {
			if !opened || jumped || n != ckJumpPayload {
				break
			}
			headEnd = off + ckHdrSize + n
			spillStart = binary.LittleEndian.Uint64(body)
			if spillStart >= d.ckptHalf {
				break
			}
			h = 1 - half
			off = spillStart
			inSpill, jumped, verify = true, true, true
			jSeq, jGen = seq, genHdr
			continue
		}
		switch kind {
		case ckFull:
			pending, pendFull, opened = nil, true, true
			fallthrough
		case ckRecs:
			if !opened {
				break scan // records with no chain start: not a chain
			}
			recs, err := decodeBatch(body, nil)
			if errors.Is(err, ErrMetaFormat) {
				return scanResult{}, false, fmt.Errorf("checkpoint chunk in half %d at offset %d: %w", h, off, err)
			}
			if err != nil {
				undecodable(err)
				break scan
			}
			pending = append(pending, recs)
		case ckCommit:
			if !opened {
				break scan
			}
			if len(body) != 1 || body[0] > 1 || (body[0] == 1) != pendFull {
				undecodable(errRange)
				break scan
			}
			if pendFull {
				cur = newState()
				sr.incs = 0
			} else {
				if cur == nil {
					break scan
				}
				sr.incs++
			}
			for _, recs := range pending {
				applyBatchTo(cur, recs)
			}
			cur.Seq = seq
			sr.gen = genHdr
			pending, pendFull = nil, false
			sr.tail = off + ckHdrSize + n
			sr.spilled = inSpill
			if inSpill {
				sr.headEnd, sr.spillStart = headEnd, spillStart
			} else {
				sr.headEnd = sr.tail
			}
		}
		off += ckHdrSize + n
	}
	if cur == nil {
		return scanResult{}, false, nil
	}
	sr.st = cur
	return sr, true, nil
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
			p = d.planCheckpoint(false, true)
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

// CheckpointFull forces one FULL checkpoint cycle — the whole registry
// image streams into the other arena half, spilling across both halves
// if it outgrows one. The wedge regression test uses it to prove an
// oversized registry can still compact.
func (d *Daemon) CheckpointFull() (time.Duration, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	d.forceFull = true
	return d.compactCycle(true)
}

// counterOnlyQuiescent reports whether a new checkpoint would add
// nothing over the committed chain: no journal appends since its
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
func (d *Daemon) checkpointSync(full bool) error {
	p := d.planCheckpoint(full, false)
	if err := d.streamCheckpoint(p); err != nil {
		d.abandonCheckpoint(p, err)
		return err
	}
	return nil
}
