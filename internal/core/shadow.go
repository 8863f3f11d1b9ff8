package core

import (
	"errors"
	"time"

	"puddles/internal/alloc"
	"puddles/internal/pmem"
	"puddles/internal/ptypes"
)

// Shadow-commit mode: the MOD-style alternative to the undo-log
// discipline. A ShadowTx never logs old values. The mutation writes a
// copy of whatever it changes into unreachable memory (plain stores,
// tracked for flushing), and commit makes the copy durable with ONE
// fence before publishing it with a single atomic 8-byte pointer
// store. That pointer is the commit point; it need not be a root, only
// the one committed word that reaches the replaced data (a structure's
// root, or a child word deep inside it). Crash recovery is pointer
// validity: either the old or the new value of that word survives, and
// everything reachable from it was fenced before the pointer flipped.
//
// Allocation and freeing still ride the wrapped undo transaction, so
// shadow structures keep the leases/wait-die arbitration of the undo
// path (a ShadowTx can die as a wait-die victim and be retried by
// RunShadow exactly like Run retries a Tx). When the wrapped
// transaction logged something — a structure carving a fresh node
// extent mid-update — its stage-1 commit fence covers the shadow
// writes too, so the discipline's ordering cost never exceeds the
// undo path it rode on.

// ErrShadowPublished reports a second Publish on one ShadowTx: the
// discipline allows exactly one atomically-published pointer per commit.
var ErrShadowPublished = errors.New("core: shadow transaction already has a published pointer")

// ShadowTx is one shadow-commit transaction.
type ShadowTx struct {
	t      *Tx
	shadow pmem.FlushSet // lines the shadow stores dirtied, merged as they come
	pubA   pmem.Addr
	pubV   uint64
	hasPub bool
}

// BeginShadow starts a shadow transaction allocating from pool.
// Prefer RunShadow, which retries wait-die victims automatically.
func (c *Client) BeginShadow(pool *Pool) *ShadowTx {
	return &ShadowTx{t: c.Begin(pool)}
}

// Tx exposes the wrapped undo transaction for the rare undo-logged
// writes a shadow structure still needs (extent directory links).
func (s *ShadowTx) Tx() *Tx { return s.t }

// Alloc allocates through the wrapped transaction: undo-logged
// allocator metadata, heap leases, wait-die — unchanged.
func (s *ShadowTx) Alloc(typeID ptypes.TypeID, size uint32) (pmem.Addr, error) {
	return s.t.Alloc(typeID, size)
}

// Free releases an object through the wrapped transaction.
func (s *ShadowTx) Free(addr pmem.Addr) error { return s.t.Free(addr) }

// Store writes shadow data: a plain store into memory nothing
// committed can reach, made durable by commit's single fence.
func (s *ShadowTx) Store(addr pmem.Addr, data []byte) {
	s.t.c.device().Store(addr, data)
	s.shadow.Add(addr, len(data))
}

// StoreU64 writes an 8-byte shadow value.
func (s *ShadowTx) StoreU64(addr pmem.Addr, v uint64) {
	s.t.c.device().StoreU64(addr, v)
	s.shadow.Add(addr, 8)
}

// Publish registers the commit point: an atomic 8-byte store of v at
// addr, issued only after every shadow write is durable. addr may be
// any committed word, not only a root.
func (s *ShadowTx) Publish(addr pmem.Addr, v uint64) error {
	if s.t.done {
		return ErrTxDone
	}
	if s.hasPub {
		return ErrShadowPublished
	}
	s.pubA, s.pubV, s.hasPub = addr, v, true
	return nil
}

// Commit makes the shadow writes durable, then publishes the pointer
// store. The shadow lines were write-combined as they were stored, so
// commit issues one flush per distinct line run and one fence — or no
// fence of its own when the wrapped transaction logged something (an
// extent carve): the lines are flushed just before its stage-1 fence,
// which orders them with everything else. The publish store is flushed
// but not fenced: the next operation's fence (or Sync on the
// structure) pushes it down, and until then recovery may see the old
// pointer with the old version intact.
func (s *ShadowTx) Commit() error {
	if s.t.done {
		return ErrTxDone
	}
	dev := s.t.c.device()
	s.shadow.Flush(dev)
	if !s.t.Pending() {
		dev.Fence() // the discipline's one ordering point
	}
	err := s.t.Commit()
	if err != nil && !errors.Is(err, ErrLogRelease) {
		return err // rolled back: the unpublished copy is garbage
	}
	if s.hasPub {
		dev.StoreU64(s.pubA, s.pubV)
		dev.Flush(s.pubA, 8)
	}
	return err
}

// Abort rolls back the wrapped transaction. The shadow writes need no
// undo: nothing committed ever pointed at them.
func (s *ShadowTx) Abort() { s.t.Abort() }

// RunShadow executes fn as a shadow-commit transaction: commit on nil
// return, abort on error or panic, transparent retry (with the
// original wait-die timestamp and the same backoff as Run) when the
// wrapped transaction dies as a lease victim.
func (c *Client) RunShadow(pool *Pool, fn func(st *ShadowTx) error) error {
	ts := txClock.Add(1)
	for attempt := 0; ; attempt++ {
		err := c.runShadowOnce(pool, fn, ts)
		if errors.Is(err, ErrTxConflict) {
			c.leaseRetries.Add(1)
			c.device().NoteLeaseRetry()
			backoff := time.Duration(attempt+1) * 250 * time.Microsecond
			if backoff > 2*time.Millisecond {
				backoff = 2 * time.Millisecond
			}
			time.Sleep(backoff)
			continue
		}
		return err
	}
}

func (c *Client) runShadowOnce(pool *Pool, fn func(st *ShadowTx) error, ts uint64) (err error) {
	st := &ShadowTx{t: c.beginTS(pool, ts)}
	defer func() {
		if r := recover(); r != nil {
			st.Abort()
			panic(r)
		}
	}()
	if err := fn(st); err != nil {
		st.Abort()
		if errors.Is(err, ErrTxConflict) {
			return err
		}
		return errTxWrap(err)
	}
	if err := st.Commit(); err != nil {
		if errors.Is(err, ErrLogRelease) {
			return err // durably committed; only log cleanup failed
		}
		if errors.Is(err, ErrTxConflict) {
			return err
		}
		return errTxWrap(err)
	}
	return nil
}

// errTxWrap mirrors runOnce's ErrTxFailed wrapping without importing
// fmt twice at every call site.
func errTxWrap(err error) error {
	return errors.Join(ErrTxFailed, err)
}

var _ alloc.Mutator = (*Tx)(nil)
