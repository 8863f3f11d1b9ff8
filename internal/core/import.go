package core

import (
	"fmt"

	"puddles/internal/alloc"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/puddle"
	"puddles/internal/reloc"
	"puddles/internal/uid"
)

// Location independence (paper §4.2): importing a pool maps its root
// puddle, rewrites the root's pointers, and reserves global-space
// ranges for every puddle those pointers target (the frontier). A
// reserved-but-unmapped puddle is armed as a fault range; the first
// access faults, the puddle is mapped and rewritten, and the frontier
// expands — the cascading on-demand pointer rewrite of the paper, with
// the device fault hook standing in for userfaultfd.

// importPud tracks one puddle of a client-side import session.
type importPud struct {
	uuid    uid.UUID
	old     pmem.Range // exported address range (what stale pointers hold)
	size    uint64
	kind    puddle.Kind
	newAddr pmem.Addr // 0 until resolved
	mapped  bool      // content present at newAddr
	rewrit  bool      // pointers rewritten
}

type importState struct {
	id       uint64
	poolUUID uid.UUID
	rootUUID uid.UUID
	puds     []*importPud

	// Stats for the Fig. 14 breakdown.
	resolves int
	faults   int
	ptrsRewr int
}

// ImportStats describes the work an import performed.
type ImportStats struct {
	Puddles     int
	Resolves    int
	Faults      int
	PtrsRewrote int
}

// ImportPool imports an exported container under a new pool name.
// With lazy=false every puddle is mapped and rewritten eagerly and the
// pool is finalized. With lazy=true only the root puddle is mapped;
// the rest map and rewrite on first access (call FinalizeImport to
// complete the session and enable writes).
func (c *Client) ImportPool(name string, blob []byte, lazy bool) (*Pool, error) {
	resp, err := c.rt(&proto.Request{Op: proto.OpImportPool, Name: name, Blob: blob})
	if err != nil {
		return nil, err
	}
	// Mirror the container's pointer maps locally; rewriting needs them.
	for _, ti := range resp.Types {
		if err := c.types.Put(ti); err != nil {
			return nil, fmt.Errorf("core: importing type %q: %w", ti.Name, err)
		}
	}
	st := &importState{id: resp.Session, poolUUID: resp.Pool, rootUUID: resp.UUID}
	var root *importPud
	for _, info := range resp.Puddles {
		ip := &importPud{
			uuid: info.UUID,
			old:  pmem.Range{Start: pmem.Addr(info.Addr), End: pmem.Addr(info.Addr + info.Size)},
			size: info.Size,
			kind: puddle.Kind(info.Kind),
		}
		if ip.uuid == st.rootUUID {
			ip.newAddr = pmem.Addr(resp.Addr)
			ip.mapped = true
			root = ip
		}
		st.puds = append(st.puds, ip)
	}
	if root == nil {
		return nil, fmt.Errorf("core: import response missing root puddle")
	}
	c.mu.Lock()
	c.imports[st.id] = st
	c.mu.Unlock()

	if err := c.rewritePuddle(st, root); err != nil {
		return nil, err
	}
	pool := &Pool{c: c, Name: name, UUID: st.poolUUID, Writable: false, imported: st}
	rootPd, err := puddle.Open(c.device(), root.newAddr)
	if err != nil {
		return nil, fmt.Errorf("core: opening imported root: %w", err)
	}
	pool.root = rootPd
	pool.puddles = append(pool.puddles, rootPd)
	if !lazy {
		if err := pool.FinalizeImport(); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// FinalizeImport eagerly maps and rewrites any remaining puddles,
// completes the daemon session, and turns the handle into a normal
// writable pool.
func (p *Pool) FinalizeImport() error {
	st := p.imported
	if st == nil {
		return ErrNotImported
	}
	c := p.c
	for _, ip := range st.puds {
		if err := c.mapAndRewrite(st, ip); err != nil {
			return err
		}
	}
	resp, err := c.rt(&proto.Request{Op: proto.OpImportDone, Session: st.id})
	if err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.imports, st.id)
	c.mu.Unlock()
	// Rebuild the handle as a regular pool (heaps indexed, writable).
	fresh, err := c.buildPool(p.Name, resp)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.root = fresh.root
	p.puddles = fresh.puddles
	p.heaps = fresh.heaps
	p.heapByPud = fresh.heapByPud
	p.Writable = fresh.Writable
	p.UUID = fresh.UUID
	p.imported = nil
	p.mu.Unlock()
	return nil
}

// ImportStats reports the relocation work done so far (Fig. 14).
func (p *Pool) ImportStats() (ImportStats, error) {
	st := p.imported
	if st == nil {
		return ImportStats{}, ErrNotImported
	}
	return ImportStats{
		Puddles:     len(st.puds),
		Resolves:    st.resolves,
		Faults:      st.faults,
		PtrsRewrote: st.ptrsRewr,
	}, nil
}

// mapAndRewrite ensures ip is resolved, mapped and rewritten.
func (c *Client) mapAndRewrite(st *importState, ip *importPud) error {
	if ip.rewrit {
		return nil
	}
	if !ip.mapped {
		// Disarm any pending fault range BEFORE asking the daemon to
		// map: the daemon writes content into that range, and with an
		// in-process daemon the armed hook would fire inside the daemon
		// goroutine and deadlock against our own pending RPC.
		if ip.newAddr != 0 {
			c.mu.Lock()
			delete(c.armed, ip.newAddr)
			delete(c.armedOwner, ip)
			c.mu.Unlock()
			c.device().RemoveFaultRange(ip.newAddr)
		}
		resp, err := c.rt(&proto.Request{Op: proto.OpImportMap, Session: st.id, UUID: ip.uuid})
		if err != nil {
			return err
		}
		c.mu.Lock()
		if ip.newAddr != 0 && ip.newAddr != pmem.Addr(resp.Addr) {
			c.mu.Unlock()
			return fmt.Errorf("core: import map moved puddle %v", ip.uuid)
		}
		ip.newAddr = pmem.Addr(resp.Addr)
		ip.mapped = true
		c.mu.Unlock()
	}
	return c.rewritePuddle(st, ip)
}

// resolveTarget returns the new address range for a stale pointer
// target, asking the daemon to reserve a frontier range on first use
// and arming the fault hook for it.
func (c *Client) resolveTarget(st *importState, target pmem.Addr) (*importPud, error) {
	var hit *importPud
	for _, ip := range st.puds {
		if ip.old.Contains(target) {
			hit = ip
			break
		}
	}
	if hit == nil {
		return nil, nil // external pointer: left untouched (paper §4.2)
	}
	if hit.newAddr != 0 {
		return hit, nil
	}
	resp, err := c.rt(&proto.Request{Op: proto.OpImportResolve, Session: st.id, Addr: uint64(target)})
	if err != nil {
		return nil, err
	}
	st.resolves++
	c.mu.Lock()
	hit.newAddr = pmem.Addr(resp.Addr)
	hit.mapped = resp.Mapped
	if !hit.mapped {
		// Frontier puddle: reserved, unmapped — arm the fault range.
		c.armed[hit.newAddr] = hit
		c.armedSession(hit, st)
		if !c.hookArmed {
			c.hookArmed = true
			c.device().ArmFaultHook(c.onFault)
		}
		c.device().AddFaultRange(pmem.Range{Start: hit.newAddr, End: hit.newAddr + pmem.Addr(hit.size)})
	}
	c.mu.Unlock()
	return hit, nil
}

// armedSession records which session owns an armed puddle.
func (c *Client) armedSession(ip *importPud, st *importState) {
	if c.armedOwner == nil {
		c.armedOwner = make(map[*importPud]*importState)
	}
	c.armedOwner[ip] = st
}

// onFault is the userfaultfd stand-in: an access touched a reserved-
// but-unmapped puddle. Map it, rewrite its pointers, expand the
// frontier (paper §4.2).
func (c *Client) onFault(start pmem.Addr) {
	c.mu.Lock()
	ip, ok := c.armed[start]
	var st *importState
	if ok {
		st = c.armedOwner[ip]
		delete(c.armed, start)
		delete(c.armedOwner, ip)
	}
	c.mu.Unlock()
	c.device().RemoveFaultRange(start)
	if !ok || st == nil {
		return
	}
	st.faults++
	if err := c.mapAndRewrite(st, ip); err != nil {
		panic(fmt.Sprintf("core: on-demand import mapping failed: %v", err))
	}
}

// rewritePuddle translates every pointer in a mapped puddle from old
// exported addresses to their new locations with the shared walker
// (paper §4.2, §4.5), resolving frontier puddles as it meets them, and
// persists the puddle once.
func (c *Client) rewritePuddle(st *importState, ip *importPud) error {
	if ip.rewrit || !ip.mapped {
		return nil
	}
	ip.rewrit = true
	if ip.kind != puddle.KindData {
		return nil
	}
	var resolveErr error
	n, err := reloc.RewritePointers(c.device(), ip.newAddr, c.types, func(ptr pmem.Addr) (pmem.Addr, bool) {
		if resolveErr != nil {
			return 0, false
		}
		target, err := c.resolveTarget(st, ptr)
		if err != nil || target == nil {
			resolveErr = err // nil: the pointer leaves the imported set
			return 0, false
		}
		return target.newAddr + (ptr - target.old.Start), true
	})
	st.ptrsRewr += n
	if err != nil {
		return fmt.Errorf("core: opening mapped import puddle: %w", err)
	}
	if resolveErr != nil {
		return resolveErr
	}
	c.device().Persist(ip.newAddr, int(ip.size))
	return nil
}

// --- read access to lazily imported pools ---

// ImportedRoot returns the root object address of an imported pool
// before finalization (reads are legal; the fault hook maps puddles on
// demand).
func (p *Pool) ImportedRoot() (pmem.Addr, error) {
	if p.imported == nil {
		return p.Root()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.root.HeapBase() + alloc.ObjHdrSize, nil
}
