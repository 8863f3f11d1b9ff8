// Metadata persistence, journal layer: per-entity records appended to
// a double-buffered journal, compacted into chunked checkpoints
// (ckpt.go).
//
// Rewriting the whole `state` struct on every pool, puddle or
// log-space change would make puddle churn from one client
// re-serialize everyone's metadata. Persistence is instead split into
// two layers, following the per-structure persistence argument of Cai
// et al. ("Understanding and Optimizing Persistent Memory Allocation")
// and MOD's goal of minimizing ordered persists on the mutation path:
//
//   - Journal: an append-only region. Every mutation appends one
//     *batch* — the intent record for the whole (possibly
//     multi-entity) operation: e.g. CreatePool appends {pool record,
//     root puddle record} as a single CRC-guarded entry, FreePuddle
//     appends {puddle tombstone, pool record, log-space tombstone}. A
//     torn batch fails its CRC and is invisible after a crash, so
//     multi-entity operations are atomic without ordering persists
//     between entities. There are two journal regions
//     (pmem.MetaJournal0/1): compaction switches appends to the empty
//     one under a brief quiesce and the retired region stays readable
//     until the checkpoint that covers its entries commits, so boot
//     can always compose checkpoint + retired journal + live journal.
//
//   - Checkpoints: chunked, incremental, streamed into the checkpoint
//     arena with the request path running — see ckpt.go.
//
// The journal write is around a hundred bytes regardless of how many
// pools and puddles exist, so metadata persistence cost is
// proportional to the operation, not to the daemon's total state. What
// the bytes are is codec.go's business: both layers persist batches of
// entRec in its one record format, which also keeps boot-time replay —
// on every application's critical path — at a few allocations per entry.
package daemon

import (
	"errors"
	"fmt"
	"hash/crc64"
	"sort"
	"strconv"
	"sync/atomic"

	"puddles/internal/pmem"
	"puddles/internal/uid"
)

// Journal geometry. The region addresses are a device property owned
// by internal/pmem (every daemon generation must agree on them); the
// in-region format is owned here.
const (
	journalBase = pmem.MetaJournal0
	journalSize = pmem.MetaJournalSize

	journalStem  = 0x4c_4e52_4a50                      // "PJRNL"
	journalMagic = journalStem | ('0'+metaVersion)<<40 // "PJRNL2": codec.go's format version rides in the magic
	jrnOffMagic  = 0
	jrnOffBase   = 8  // checkpoint seq this journal builds on
	jrnHdrSize   = 64 // first entry starts here (cacheline aligned)

	// Entry header: u32 payload length | u32 zero | u64 payload CRC |
	// u64 batch seq. The header is written last, after the payload is
	// flushed, so a torn append leaves an invalid header and replay
	// stops there (a header torn across cachelines fails its CRC; the
	// entry was never acked, so dropping it is correct). Keeping the
	// seq in the header rather than the payload lets the encode and the
	// CRC run outside jMu — only the slot reservation serializes there;
	// even the device writes run outside the lock (see reserveGroup).
	entHdrSize = 24
)

// errJournalFull is returned when an append cannot fit even before
// compaction has had a chance to run; the operation's metadata is NOT
// durable and the client must not be acked.
var errJournalFull = errors.New("daemon: metadata journal full")

// journalHighWater is the active-journal fill level past which request
// workers trigger compaction.
func (d *Daemon) journalHighWater() uint64 { return d.journalCap - d.journalCap/4 }

// recKind tags one persisted entity record.
type recKind uint8

const (
	recPool recKind = iota + 1
	recPuddle
	recLogSpace
	recSession
	recTypes
	recCounters
	// recPoolLink / recPoolUnlink are membership deltas: Key is the
	// pool name, Val the member puddle (memberRef). Puddle churn journals
	// one of these instead of the pool's whole member list, keeping the
	// append O(operation) even for pools with huge membership; replay
	// composes them onto the checkpointed pool record in order.
	recPoolLink
	recPoolUnlink
	// Migration records (migrate.go). recMigOut is a source-side
	// in-flight migration keyed by raw migration UUID; recMoved is the
	// tombstone a ceded pool leaves behind (key: pool name, value: the
	// new owner's URL); recMigDone marks an adopted migration at the
	// target (key: raw migration UUID) so a re-sent commit is
	// idempotent.
	recMigOut
	recMoved
	recMigDone
	// Kinds 12 and 13 held warm-standby copies and replication
	// obligations, a mechanism since deleted. They stay reserved, are
	// never reused, and a batch or chunk holding either is refused with
	// ErrMetaFormat (decodeBatch).
	recRetiredStandby
	recRetiredReplica
)

// entRec is one per-entity record of a journal batch or checkpoint
// chunk: a full replacement value for the entity, a tombstone, or a
// pool-membership delta. Batches are the unit of journal append and
// replay — and of checkpoint chunking (ckpt.go): all records of one
// daemon operation (or one chunk), applied atomically; a batch's
// sequence number lives in the entry header.
//
// Val is an immutable snapshot. The record outlives the append — it
// waits in d.pending as a delta on the committed registry image and is
// installed into the next image by pointer — so whoever builds a record
// hands over a value nothing will write again: puddle and log-space
// records never change after creation, everything else is copied by
// its constructor (PoolRec.rec, sessRec, migOutRec, ...).
type entRec struct {
	Kind recKind
	Del  bool
	Key  string   // pool name, raw 16-byte UUID, or decimal session id
	Val  recValue // nil for tombstones
}

// counters is the journal-persisted slice of the daemon's cumulative
// state that is not an entity registry.
type counters struct {
	NextSession    uint64
	Recoveries     uint64
	LogsReplayed   uint64
	EntriesApplied uint64
	Imports        uint64
}

// putRec builds a replacement record for one entity; v must never be
// written again (see entRec).
func putRec(kind recKind, key string, v recValue) entRec {
	return entRec{Kind: kind, Key: key, Val: v}
}

// delRec builds a tombstone for one entity.
func delRec(kind recKind, key string) entRec {
	return entRec{Kind: kind, Key: key, Del: true}
}

func uuidKey(u uid.UUID) string { return string(u[:]) }

// keyUUIDOf is uuidKey's inverse, for a key already known to be 16
// bytes (decodeBatch checks; the record constructors build it so).
func keyUUIDOf(key string) (u uid.UUID) {
	copy(u[:], key)
	return u
}

// linkRec / unlinkRec build pool-membership delta records. The record
// points at the member's (immutable) puddle record rather than copying
// its UUID: one allocation less on the grant/free path.
func linkRec(pool string, member *PuddleRec) entRec {
	return putRec(recPoolLink, pool, (*memberRef)(&member.UUID))
}

func unlinkRec(pool string, member *PuddleRec) entRec {
	return putRec(recPoolUnlink, pool, (*memberRef)(&member.UUID))
}

// countersVal snapshots the counter block. The caller holds sessMu,
// exclusive opMu, or is the single boot goroutine; the recovery
// counters are quiescent while any handler runs and are re-
// checkpointed after every recovery pass anyway.
func (d *Daemon) countersVal() *counters {
	return &counters{
		NextSession:    d.st.NextSession,
		Recoveries:     atomic.LoadUint64(&d.st.Recoveries),
		LogsReplayed:   atomic.LoadUint64(&d.st.LogsReplayed),
		EntriesApplied: atomic.LoadUint64(&d.st.EntriesApplied),
		Imports:        atomic.LoadUint64(&d.st.Imports),
	}
}

// countersRec encodes the counter block as a journal record.
func (d *Daemon) countersRec() entRec { return putRec(recCounters, "", d.countersVal()) }

// jreq is one caller's pending journal append: its pre-encoded
// payload and checksum, the error slot, and the completion signal the
// group-commit leader closes once the entry is durable (or rejected).
// lead is the promotion signal: a leader that has finished reserving
// closes it to hand leadership to a still-queued waiter. done and
// lead are disjoint — done closes only for dequeued (processed)
// entries, lead only for queued ones.
type jreq struct {
	payload []byte
	crc     uint64
	err     error
	done    chan struct{}
	lead    chan struct{}
}

// appendBatch makes recs durable as one atomic journal entry, bumps
// the metadata sequence number and marks the touched entities dirty
// for the next incremental checkpoint. Callers hold the lock of every
// entity named in recs (so per-entity journal order matches in-memory
// order); the encode and checksum run with no lock held.
//
// Appends are group-committed leader–follower style: each caller
// enqueues its pre-encoded entry, the first caller in becomes the
// leader and commits the queue through commitGroup — which reserves
// every queued entry's journal slot under jMu, hands leadership over,
// and only then copies payloads and issues ONE payload fence and ONE
// header fence for the whole group — while followers just wait for
// their completion signal. Under concurrency the flush+fence pair is
// amortized over the group AND the next group's reservation, payload
// encode and copies overlap this group's fences (only the header
// publish serializes across groups, in reservation order — see
// persistGroup); a solo caller degenerates to exactly the plain
// two-fence append.
//
// Leadership is bounded to a single lap: a leader's own entry is
// always in the queue it drains (it was enqueued before leadership
// was taken or handed over, and only the leader dequeues), so after
// one reservation the leader promotes the oldest still-queued waiter
// — or steps down — and persists its group without holding one
// client's response hostage to everyone else's churn.
func (d *Daemon) appendBatch(recs []entRec) error {
	payload := encodeBatch(make([]byte, 0, 64*len(recs)), recs)
	r := &jreq{
		payload: payload, crc: crc64.Checksum(payload, crcTable),
		done: make(chan struct{}), lead: make(chan struct{}),
	}
	d.jgMu.Lock()
	d.jgQueue = append(d.jgQueue, r)
	if d.jgLeader {
		d.jgMu.Unlock()
		select {
		case <-r.done: // a leader committed our entry
			if r.err == nil {
				d.markDirty(recs)
			}
			return r.err
		case <-r.lead: // promoted: our entry is still queued; drain it
		}
	} else {
		d.jgLeader = true
		d.jgMu.Unlock()
	}
	// Leader: one lap, necessarily containing our own entry.
	d.jgMu.Lock()
	batch := d.jgQueue
	d.jgQueue = nil
	d.jgMu.Unlock()
	d.commitGroup(batch)
	if r.err == nil {
		d.markDirty(recs)
	}
	return r.err
}

// placedEntry is one reserved journal slot: the entry, its header
// address and its assigned sequence number.
type placedEntry struct {
	r   *jreq
	ent pmem.Addr
	seq uint64
}

// groupRes is one group's reservation: its placed entries, the
// terminator slot at the group's end, and the durability ticket chain
// links (pred = the previous group's ticket, closed when that group's
// headers are durable).
type groupRes struct {
	placed []placedEntry
	term   pmem.Addr
	pred   chan struct{}
}

// commitGroup persists a batch of queued journal entries: reserve
// slots under jMu, hand leadership to the next waiter, then copy and
// fence outside every lock. Crash atomicity per entry is unchanged
// from the serial path: an entry is visible iff its header decodes
// and its payload CRC holds, and no completion signal fires before
// the final fence — a crash between the fences loses only unacked
// entries. Entries that do not fit are failed individually
// (errJournalFull) without blocking smaller entries behind them.
func (d *Daemon) commitGroup(batch []*jreq) {
	var (
		own       chan struct{}
		handedOff bool
		settled   bool
	)
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		// Injected power failure (or a bug) mid-group: the machine is
		// dying. Fail this batch — an error for a possibly-durable entry
		// is exactly a real crash losing the ack — and, if leadership
		// was never handed over, everything still queued (nobody else
		// will lead it); close our durability ticket so no successor
		// group camps on it, then keep unwinding.
		var pending []*jreq
		if !handedOff {
			d.jgMu.Lock()
			pending = d.jgQueue
			d.jgQueue = nil
			d.jgLeader = false
			d.jgMu.Unlock()
		}
		if own != nil {
			close(own)
		}
		fail := pending
		if !settled {
			fail = append(batch, pending...)
		}
		for _, q := range fail {
			if q.err == nil {
				q.err = fmt.Errorf("daemon: journal append aborted: %v", rec)
			}
			close(q.done)
		}
		panic(rec)
	}()
	var res groupRes
	res, own = d.reserveGroup(batch)
	// Hand leadership to the oldest still-queued waiter (or step down)
	// BEFORE persisting: the next group reserves its slots, encodes and
	// copies its payloads while this group's flushes and fences run.
	d.jgMu.Lock()
	if len(d.jgQueue) > 0 {
		close(d.jgQueue[0].lead) // jgLeader stays true for the promotee
	} else {
		d.jgLeader = false
	}
	d.jgMu.Unlock()
	handedOff = true
	d.persistGroup(res, own)
	settled = true
	for _, q := range batch {
		close(q.done)
	}
}

// reserveGroup assigns a sequence number and journal offset to every
// entry that fits, writes the group-end terminator, and links the
// group into the durability ticket chain. Only this runs under jMu;
// payload copies, flushes and fences all happen outside the lock.
//
// The zeroed terminator header at the group's end is stored here,
// under jMu, deliberately: the successor group's first entry header
// lands on the same bytes, and its (strictly later) reservation
// orders its header store after this zero store — so the boot scan
// always stops at the true tail, never at stale bytes from a previous
// journal generation, and a successor's published header is never
// clobbered by a straggling terminator.
func (d *Daemon) reserveGroup(batch []*jreq) (groupRes, chan struct{}) {
	d.jMu.Lock()
	defer d.jMu.Unlock()
	var res groupRes
	tail := d.jTail
	for _, r := range batch {
		need := uint64(entHdrSize) + uint64(len(r.payload)) + entHdrSize // entry + terminator
		if tail+need > d.journalCap {
			d.persistErrs.Add(1)
			// The tail may still be below the high-water mark (an
			// outsized batch); force the next maybeCompact to reclaim
			// the journal so a retry of this operation can succeed.
			d.needCompact.Store(true)
			r.err = errJournalFull
			continue
		}
		d.seq++
		res.placed = append(res.placed, placedEntry{r: r, ent: d.jBase + pmem.Addr(tail), seq: d.seq})
		tail += uint64(entHdrSize) + uint64(len(r.payload))
	}
	if len(res.placed) == 0 {
		return res, nil
	}
	res.term = d.jBase + pmem.Addr(tail)
	d.dev.StoreU64(res.term, 0)
	d.dev.StoreU64(res.term+8, 0)
	d.jTail = tail
	d.jTailApprox.Store(tail)
	res.pred = d.jPrevDone
	own := make(chan struct{})
	d.jPrevDone = own
	return res, own
}

// persistGroup copies the group's payloads and publishes its headers
// with two fences total, outside every daemon lock. The journal is
// scanned as a prefix at boot, so this group's headers may become
// durable only after every predecessor group's are — otherwise a
// crash could strand acked entries behind an unreadable gap. The
// payload copies and the payload fence already overlapped the
// predecessor's work; only the header publish serializes, in
// reservation order, via the ticket chain.
func (d *Daemon) persistGroup(res groupRes, own chan struct{}) {
	if len(res.placed) == 0 {
		return
	}
	var fs pmem.FlushSet
	for _, p := range res.placed {
		d.dev.Store(p.ent+entHdrSize, p.r.payload)
		fs.Add(p.ent+entHdrSize, len(p.r.payload))
	}
	fs.Add(res.term, entHdrSize)
	fs.Flush(d.dev)
	d.dev.Fence()
	<-res.pred
	fs = pmem.FlushSet{}
	for _, p := range res.placed {
		d.dev.StoreU32(p.ent, uint32(len(p.r.payload)))
		d.dev.StoreU32(p.ent+4, 0)
		d.dev.StoreU64(p.ent+8, p.r.crc)
		d.dev.StoreU64(p.ent+16, p.seq)
		fs.Add(p.ent, entHdrSize)
	}
	fs.Flush(d.dev)
	d.dev.Fence()
	close(own)
}

// resetJournalRegion starts a fresh (empty) journal in the region at
// base, building on the checkpoint with sequence number baseSeq, and
// retargets the append cursor there. The magic is dropped first and
// re-published last, each under its own fence, so a power failure
// mid-reset leaves an invalid region (ignored at boot) rather than a
// region whose header and contents disagree. The caller must either
// hold opMu exclusively or be the single boot goroutine, and must
// guarantee every entry the region held is covered by a committed
// checkpoint.
func (d *Daemon) resetJournalRegion(base pmem.Addr, baseSeq uint64) {
	d.dev.StoreU64(base+jrnOffMagic, 0)
	d.dev.Persist(base+jrnOffMagic, 8)
	d.dev.StoreU64(base+jrnOffBase, baseSeq)
	d.dev.StoreU64(base+pmem.Addr(jrnHdrSize), 0) // first entry: len 0
	d.dev.StoreU64(base+pmem.Addr(jrnHdrSize)+8, 0)
	d.dev.Persist(base, jrnHdrSize+entHdrSize)
	d.dev.StoreU64(base+jrnOffMagic, journalMagic)
	d.dev.Persist(base+jrnOffMagic, 8)
	d.jBase = base
	d.jBaseSeq = baseSeq
	d.jTail = jrnHdrSize
	d.jTailApprox.Store(d.jTail)
}

// switchJournal retargets appends to the other journal region,
// reset on top of the checkpoint being written (baseSeq). The caller
// (planCheckpoint) must have verified the other region's entries are
// covered by the committed checkpoint chain.
func (d *Daemon) switchJournal(baseSeq uint64) {
	other := pmem.MetaJournal0
	if d.jBase == pmem.MetaJournal0 {
		other = pmem.MetaJournal1
	}
	d.resetJournalRegion(other, baseSeq)
}

// initJournals establishes the boot-time journal state after the boot
// checkpoint committed: journal 0 becomes the empty active region and
// journal 1 is invalidated (its entries, like journal 0's old ones,
// are covered by the checkpoint; a stale region must not survive into
// a generation that will reuse it).
func (d *Daemon) initJournals() {
	d.dev.StoreU64(pmem.MetaJournal1+jrnOffMagic, 0)
	d.dev.Persist(pmem.MetaJournal1+jrnOffMagic, 8)
	d.resetJournalRegion(pmem.MetaJournal0, d.seq)
}

// replayJournals composes every decodable journal batch with
// Seq > ckptSeq onto d.st, in sequence order across both regions (the
// retired region first — its base is older). Returns the number of
// batches applied. Called single-threaded at boot.
//
// A region whose base exceeds the sequence reached so far was built
// on top of state we failed to recover (it can only appear after
// media corruption); its batches — membership deltas especially —
// must not be composed onto an older base, so it is skipped. A region
// in another journal format version, or a batch holding a retired
// record, is not skipped but refused: its entries are acknowledged
// metadata this daemon cannot read.
func (d *Daemon) replayJournals(ckptSeq uint64) (int, error) {
	type region struct {
		addr pmem.Addr
		base uint64
	}
	var regs []region
	for _, a := range []pmem.Addr{pmem.MetaJournal0, pmem.MetaJournal1} {
		switch magic := d.dev.LoadU64(a + jrnOffMagic); {
		case magic == journalMagic:
			regs = append(regs, region{addr: a, base: d.dev.LoadU64(a + jrnOffBase)})
		case magic&(1<<40-1) == journalStem:
			return 0, fmt.Errorf("%w: journal at %#x has magic PJRNL%c, want PJRNL%d",
				ErrMetaFormat, uint64(a), byte(magic>>40), metaVersion)
		} // anything else holds no journal (e.g. an invalidated journal 1)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].base < regs[j].base })
	applied := 0
	reached := ckptSeq
	for _, rg := range regs {
		if rg.base > reached {
			d.logf("boot: journal at %#x base seq %d exceeds recovered seq %d; ignoring it",
				uint64(rg.addr), rg.base, reached)
			break
		}
		n, err := d.replayRegion(rg.addr, ckptSeq, &reached)
		if err != nil {
			return 0, err
		}
		applied += n
	}
	return applied, nil
}

// replayRegion scans one journal region and applies every decodable
// batch with Seq > ckptSeq, advancing reached past every valid entry.
// A batch applies whole or not at all: an entry whose CRC holds but
// whose payload does not decode ends the replay right there, exactly
// like a torn one (and unlike a torn one is worth a log line and a
// JournalDecodeErrors tick — the CRC says these are the bytes we
// wrote). The exception is a batch in a retired format (ErrMetaFormat):
// ending there would drop every later entry, so it is returned instead.
// The payload buffer and the record slice are reused across entries;
// decoded records alias neither.
func (d *Daemon) replayRegion(base pmem.Addr, ckptSeq uint64, reached *uint64) (int, error) {
	var (
		applied int
		buf     []byte
		recs    []entRec
		off     = uint64(jrnHdrSize)
	)
	for off+entHdrSize <= journalSize {
		ent := base + pmem.Addr(off)
		n := uint64(d.dev.LoadU32(ent))
		if n == 0 || off+entHdrSize+n > journalSize {
			break
		}
		if uint64(cap(buf)) < n {
			buf = make([]byte, n, 2*n)
		}
		payload := buf[:n]
		d.dev.Load(ent+entHdrSize, payload)
		if crc64.Checksum(payload, crcTable) != d.dev.LoadU64(ent+8) {
			break // torn append: the batch never happened
		}
		seq := d.dev.LoadU64(ent + 16)
		var err error
		if recs, err = decodeBatch(payload, recs[:0]); err != nil {
			if errors.Is(err, ErrMetaFormat) {
				return 0, fmt.Errorf("journal at %#x offset %d seq %d: %w", uint64(base), off, seq, err)
			}
			d.jDecodeErrs.Add(1)
			d.logf("boot: journal at %#x offset %d seq %d does not decode (%v); replay ends there",
				uint64(base), off, seq, err)
			break
		}
		if seq > *reached {
			*reached = seq
		}
		if seq > ckptSeq {
			applyBatchTo(&d.st, recs)
			if seq > d.seq {
				d.seq = seq
			}
			applied++
		}
		off += entHdrSize + n
	}
	return applied, nil
}

// applyBatchTo folds one decoded journal batch (or checkpoint chunk)
// into st, which the caller owns outright (boot-time composition).
func applyBatchTo(st *state, recs []entRec) {
	for i := range recs {
		applyRec(st, &recs[i], nil)
	}
}

// applyRec folds one record into st. Records are whole-entity
// replacements, so application is idempotent and last-writer-wins per
// key; values are installed by pointer and never written afterwards,
// with one exception: a membership delta edits its pool's member list
// in place. At boot that is fine — replay owns everything it decoded.
// composeImage instead passes owned, the set of pools it has already
// copied for the image under construction, and any other pool is
// cloned before its first edit, so neither the previous image nor a
// pending record's value is ever written.
func applyRec(st *state, r *entRec, owned map[string]bool) {
	switch r.Kind {
	case recPool:
		delete(owned, r.Key) // a replaced pool is the record's, not ours
		putOrDel(st.Pools, r.Key, r)
	case recPoolLink, recPoolUnlink:
		pool := st.Pools[r.Key]
		if pool == nil {
			return
		}
		if owned != nil && !owned[r.Key] {
			pool = pool.snapshot()
			st.Pools[r.Key], owned[r.Key] = pool, true
		}
		u := uid.UUID(*r.Val.(*memberRef))
		if r.Kind == recPoolLink {
			pool.Puddles = append(pool.Puddles, u)
			return
		}
		for i, pu := range pool.Puddles {
			if pu == u {
				pool.Puddles = append(pool.Puddles[:i], pool.Puddles[i+1:]...)
				break
			}
		}
	case recPuddle:
		putOrDel(st.Puddles, keyUUIDOf(r.Key), r)
	case recLogSpace:
		putOrDel(st.LogSpaces, keyUUIDOf(r.Key), r)
	case recSession:
		id, _ := strconv.ParseUint(r.Key, 10, 64)
		putOrDel(st.Sessions, id, r)
	case recMigOut:
		putOrDel(st.MigsOut, keyUUIDOf(r.Key), r)
	case recMoved:
		putOrDel(st.Moved, r.Key, r)
	case recMigDone:
		putOrDel(st.MigsDone, keyUUIDOf(r.Key), r)
	case recTypes:
		st.Types = r.Val.(typeList)
	case recCounters:
		c := r.Val.(*counters)
		st.NextSession = c.NextSession
		st.Recoveries = c.Recoveries
		st.LogsReplayed = c.LogsReplayed
		st.EntriesApplied = c.EntriesApplied
		st.Imports = c.Imports
	}
}

// putOrDel installs r's value under k, or removes k for a tombstone.
func putOrDel[K comparable, V any](m map[K]*V, k K, r *entRec) {
	if r.Del {
		delete(m, k)
	} else {
		m[k] = any(r.Val).(*V)
	}
}
