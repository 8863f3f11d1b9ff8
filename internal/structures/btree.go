package structures

import (
	"puddles/internal/pmem"
	"puddles/internal/pmlib"
)

// BTree is the order-8 B-tree of paper Fig. 10: up to 7 keys and 8
// children per node, 8-byte keys and values, one transaction per
// mutation.
//
// Node layout (offsets independent of reference width until children):
//
//	0   nkeys u64
//	8   leaf  u64
//	16  keys  [7]u64
//	72  vals  [7]u64
//	128 children [8]Ref
//
// The root object holds a single Ref to the current root node.
type BTree struct {
	lib      pmlib.Lib
	rootAddr pmem.Addr // address of the root Ref
	nodeSize uint32
	rs       uint32
}

// B-tree geometry.
const (
	btOrder   = 8
	btMaxKeys = btOrder - 1
	btMinKeys = btOrder/2 - 1 // every node but the root holds at least this many

	boNKeys = 0
	boLeaf  = 8
	boKeys  = 16
	boVals  = 72
	boKids  = 128
)

// NewBTree opens (or creates) the tree in lib's root object.
func NewBTree(lib pmlib.Lib) (*BTree, error) {
	rs := lib.RefSize()
	root, err := lib.Root(rs)
	if err != nil {
		return nil, err
	}
	return &BTree{
		lib:      lib,
		rootAddr: lib.Deref(root),
		nodeSize: boKids + btOrder*rs,
		rs:       rs,
	}, nil
}

func (t *BTree) dev() *pmem.Device { return t.lib.Device() }

func (t *BTree) nkeys(n pmem.Addr) int   { return int(t.dev().LoadU64(n + boNKeys)) }
func (t *BTree) isLeaf(n pmem.Addr) bool { return t.dev().LoadU64(n+boLeaf) != 0 }
func (t *BTree) key(n pmem.Addr, i int) uint64 {
	return t.dev().LoadU64(n + boKeys + pmem.Addr(i*8))
}
func (t *BTree) val(n pmem.Addr, i int) uint64 {
	return t.dev().LoadU64(n + boVals + pmem.Addr(i*8))
}
func (t *BTree) childRef(n pmem.Addr, i int) pmlib.Ref {
	return t.lib.LoadRef(n + boKids + pmem.Addr(uint32(i)*t.rs))
}
func (t *BTree) child(n pmem.Addr, i int) pmem.Addr {
	return t.lib.Deref(t.childRef(n, i))
}
func (t *BTree) childSlot(n pmem.Addr, i int) pmem.Addr {
	return n + boKids + pmem.Addr(uint32(i)*t.rs)
}

// Search returns the value for key (read-only pointer chase).
func (t *BTree) Search(key uint64) (uint64, bool) {
	n := t.lib.Deref(t.lib.LoadRef(t.rootAddr))
	for n != 0 {
		nk := t.nkeys(n)
		i := 0
		for i < nk && key > t.key(n, i) {
			i++
		}
		if i < nk && key == t.key(n, i) {
			return t.val(n, i), true
		}
		if t.isLeaf(n) {
			return 0, false
		}
		n = t.child(n, i)
	}
	return 0, false
}

// Insert adds or updates a key in one transaction.
func (t *BTree) Insert(key, val uint64) error {
	return t.lib.Run(func(tx pmlib.Tx) error {
		rootRef := t.lib.LoadRef(t.rootAddr)
		if rootRef.IsNull() {
			leaf, err := t.newNode(tx, true)
			if err != nil {
				return err
			}
			la := t.lib.Deref(leaf)
			if err := t.setKV(tx, la, 0, key, val); err != nil {
				return err
			}
			if err := tx.SetU64(la+boNKeys, 1); err != nil {
				return err
			}
			return tx.SetRef(t.rootAddr, leaf)
		}
		root := t.lib.Deref(rootRef)
		if t.nkeys(root) == btMaxKeys {
			// Split the root: new root with one child, then split down.
			newRootRef, err := t.newNode(tx, false)
			if err != nil {
				return err
			}
			nr := t.lib.Deref(newRootRef)
			if err := tx.SetRef(t.childSlot(nr, 0), rootRef); err != nil {
				return err
			}
			if err := t.splitChild(tx, nr, 0); err != nil {
				return err
			}
			if err := tx.SetRef(t.rootAddr, newRootRef); err != nil {
				return err
			}
			root = nr
		}
		return t.insertNonFull(tx, root, key, val)
	})
}

func (t *BTree) newNode(tx pmlib.Tx, leaf bool) (pmlib.Ref, error) {
	r, err := tx.Alloc(t.nodeSize)
	if err != nil {
		return pmlib.Null, err
	}
	if leaf {
		if err := tx.SetU64(t.lib.Deref(r)+boLeaf, 1); err != nil {
			return pmlib.Null, err
		}
	}
	return r, nil
}

func (t *BTree) setKV(tx pmlib.Tx, n pmem.Addr, i int, key, val uint64) error {
	if err := tx.SetU64(n+boKeys+pmem.Addr(i*8), key); err != nil {
		return err
	}
	return tx.SetU64(n+boVals+pmem.Addr(i*8), val)
}

// splitChild splits the full i-th child of parent (CLRS B-TREE-SPLIT).
func (t *BTree) splitChild(tx pmlib.Tx, parent pmem.Addr, i int) error {
	childRef := t.childRef(parent, i)
	child := t.lib.Deref(childRef)
	leaf := t.isLeaf(child)
	newRef, err := t.newNode(tx, leaf)
	if err != nil {
		return err
	}
	right := t.lib.Deref(newRef)
	const mid = btMaxKeys / 2 // 3: median index
	// Move keys/vals [mid+1, 7) to the new right node.
	for j := mid + 1; j < btMaxKeys; j++ {
		if err := t.setKV(tx, right, j-mid-1, t.key(child, j), t.val(child, j)); err != nil {
			return err
		}
	}
	if !leaf {
		for j := mid + 1; j < btOrder; j++ {
			if err := tx.SetRef(t.childSlot(right, j-mid-1), t.childRef(child, j)); err != nil {
				return err
			}
		}
	}
	if err := tx.SetU64(right+boNKeys, uint64(btMaxKeys-mid-1)); err != nil {
		return err
	}
	if err := tx.SetU64(child+boNKeys, uint64(mid)); err != nil {
		return err
	}
	// Shift the parent's keys and children right of slot i.
	nk := t.nkeys(parent)
	for j := nk - 1; j >= i; j-- {
		if err := t.setKV(tx, parent, j+1, t.key(parent, j), t.val(parent, j)); err != nil {
			return err
		}
	}
	for j := nk; j >= i+1; j-- {
		if err := tx.SetRef(t.childSlot(parent, j+1), t.childRef(parent, j)); err != nil {
			return err
		}
	}
	if err := t.setKV(tx, parent, i, t.key(child, mid), t.val(child, mid)); err != nil {
		return err
	}
	if err := tx.SetRef(t.childSlot(parent, i+1), newRef); err != nil {
		return err
	}
	return tx.SetU64(parent+boNKeys, uint64(nk+1))
}

func (t *BTree) insertNonFull(tx pmlib.Tx, n pmem.Addr, key, val uint64) error {
	for {
		nk := t.nkeys(n)
		i := 0
		for i < nk && key > t.key(n, i) {
			i++
		}
		if i < nk && key == t.key(n, i) { // update in place
			return tx.SetU64(n+boVals+pmem.Addr(i*8), val)
		}
		if t.isLeaf(n) {
			for j := nk - 1; j >= i; j-- {
				if err := t.setKV(tx, n, j+1, t.key(n, j), t.val(n, j)); err != nil {
					return err
				}
			}
			if err := t.setKV(tx, n, i, key, val); err != nil {
				return err
			}
			return tx.SetU64(n+boNKeys, uint64(nk+1))
		}
		if t.nkeys(t.child(n, i)) == btMaxKeys {
			if err := t.splitChild(tx, n, i); err != nil {
				return err
			}
			switch {
			case key > t.key(n, i):
				i++
			case key == t.key(n, i):
				return tx.SetU64(n+boVals+pmem.Addr(i*8), val)
			}
		}
		n = t.child(n, i)
	}
}

// Delete removes a key in one transaction, in one pass down from the
// root (CLRS B-TREE-DELETE). The descent enters a node only once it
// holds more than btMinKeys keys, topping a child up first by borrowing
// from a sibling or merging with one, so no node ever underflows. An
// internal key is replaced by its predecessor or successor, which is
// then deleted from the subtree that can spare it; if neither can, the
// key and its two children merge and the descent continues into the
// merged node.
func (t *BTree) Delete(key uint64) (bool, error) {
	found := false
	err := t.lib.Run(func(tx pmlib.Tx) error {
		found = false
		rootRef := t.lib.LoadRef(t.rootAddr)
		if rootRef.IsNull() {
			return nil
		}
		n, k := t.lib.Deref(rootRef), key
		for {
			nk := t.nkeys(n)
			i := 0
			for i < nk && k > t.key(n, i) {
				i++
			}
			if i < nk && k == t.key(n, i) {
				found = true
				if t.isLeaf(n) {
					if err := t.removeKey(tx, n, i); err != nil {
						return err
					}
					break
				}
				// Replace k by its predecessor or successor, then delete
				// that from the subtree holding it.
				y, z := t.child(n, i), t.child(n, i+1)
				var sub, leaf pmem.Addr
				var at int
				switch {
				case t.nkeys(y) > btMinKeys:
					sub = y
					leaf, at = t.maxOf(y)
				case t.nkeys(z) > btMinKeys:
					sub, leaf = z, t.minOf(z)
				default:
					if err := t.merge(tx, n, i); err != nil {
						return err
					}
					n = y
					continue
				}
				k = t.key(leaf, at)
				if err := t.setKV(tx, n, i, k, t.val(leaf, at)); err != nil {
					return err
				}
				n = sub
				continue
			}
			if t.isLeaf(n) {
				break // absent
			}
			c, err := t.fill(tx, n, i)
			if err != nil {
				return err
			}
			n = c
		}
		// A merge under a one-key root leaves the root empty: its only
		// child becomes the root.
		root := t.lib.Deref(rootRef)
		if t.nkeys(root) == 0 && !t.isLeaf(root) {
			if err := tx.SetRef(t.rootAddr, t.childRef(root, 0)); err != nil {
				return err
			}
			return tx.Free(rootRef)
		}
		return nil
	})
	return found, err
}

// maxOf walks to the rightmost (leaf, index) under n.
func (t *BTree) maxOf(n pmem.Addr) (pmem.Addr, int) {
	for !t.isLeaf(n) {
		n = t.child(n, t.nkeys(n))
	}
	return n, t.nkeys(n) - 1
}

// minOf walks to the leftmost leaf under n.
func (t *BTree) minOf(n pmem.Addr) pmem.Addr {
	for !t.isLeaf(n) {
		n = t.child(n, 0)
	}
	return n
}

// removeKey drops key i of n, shifting the keys after it left; moving
// children is the caller's business.
func (t *BTree) removeKey(tx pmlib.Tx, n pmem.Addr, i int) error {
	nk := t.nkeys(n)
	for j := i; j < nk-1; j++ {
		if err := t.setKV(tx, n, j, t.key(n, j+1), t.val(n, j+1)); err != nil {
			return err
		}
	}
	return tx.SetU64(n+boNKeys, uint64(nk-1))
}

// fill makes child i of n hold more than btMinKeys keys before the
// descent enters it: rotate a key through n from a sibling that can
// spare one, or else merge the child with a sibling. It returns the
// node to descend into.
func (t *BTree) fill(tx pmlib.Tx, n pmem.Addr, i int) (pmem.Addr, error) {
	c := t.child(n, i)
	if t.nkeys(c) > btMinKeys {
		return c, nil
	}
	nk := t.nkeys(n)
	switch {
	case i > 0 && t.nkeys(t.child(n, i-1)) > btMinKeys:
		return c, t.borrowLeft(tx, n, i)
	case i < nk && t.nkeys(t.child(n, i+1)) > btMinKeys:
		return c, t.borrowRight(tx, n, i)
	case i < nk:
		return c, t.merge(tx, n, i)
	default:
		return t.child(n, i-1), t.merge(tx, n, i-1)
	}
}

// borrowLeft moves separator i-1 of n down to the front of child i and
// the last key of child i-1 up into its place, with that key's right
// child.
func (t *BTree) borrowLeft(tx pmlib.Tx, n pmem.Addr, i int) error {
	c, l := t.child(n, i), t.child(n, i-1)
	cnk, lnk := t.nkeys(c), t.nkeys(l)
	for j := cnk - 1; j >= 0; j-- {
		if err := t.setKV(tx, c, j+1, t.key(c, j), t.val(c, j)); err != nil {
			return err
		}
	}
	if !t.isLeaf(c) {
		for j := cnk; j >= 0; j-- {
			if err := tx.SetRef(t.childSlot(c, j+1), t.childRef(c, j)); err != nil {
				return err
			}
		}
		if err := tx.SetRef(t.childSlot(c, 0), t.childRef(l, lnk)); err != nil {
			return err
		}
	}
	if err := t.setKV(tx, c, 0, t.key(n, i-1), t.val(n, i-1)); err != nil {
		return err
	}
	if err := t.setKV(tx, n, i-1, t.key(l, lnk-1), t.val(l, lnk-1)); err != nil {
		return err
	}
	if err := tx.SetU64(l+boNKeys, uint64(lnk-1)); err != nil {
		return err
	}
	return tx.SetU64(c+boNKeys, uint64(cnk+1))
}

// borrowRight moves separator i of n down to the end of child i and the
// first key of child i+1 up into its place, with that key's left child.
func (t *BTree) borrowRight(tx pmlib.Tx, n pmem.Addr, i int) error {
	c, r := t.child(n, i), t.child(n, i+1)
	cnk, rnk := t.nkeys(c), t.nkeys(r)
	if err := t.setKV(tx, c, cnk, t.key(n, i), t.val(n, i)); err != nil {
		return err
	}
	if err := t.setKV(tx, n, i, t.key(r, 0), t.val(r, 0)); err != nil {
		return err
	}
	if !t.isLeaf(c) {
		if err := tx.SetRef(t.childSlot(c, cnk+1), t.childRef(r, 0)); err != nil {
			return err
		}
		for j := 0; j < rnk; j++ {
			if err := tx.SetRef(t.childSlot(r, j), t.childRef(r, j+1)); err != nil {
				return err
			}
		}
	}
	if err := t.removeKey(tx, r, 0); err != nil {
		return err
	}
	return tx.SetU64(c+boNKeys, uint64(cnk+1))
}

// merge folds separator i of n and child i+1 into child i, removes both
// from n and frees the emptied node.
func (t *BTree) merge(tx pmlib.Tx, n pmem.Addr, i int) error {
	y, zRef := t.child(n, i), t.childRef(n, i+1)
	z := t.lib.Deref(zRef)
	ynk, znk, nk := t.nkeys(y), t.nkeys(z), t.nkeys(n)
	if err := t.setKV(tx, y, ynk, t.key(n, i), t.val(n, i)); err != nil {
		return err
	}
	for j := 0; j < znk; j++ {
		if err := t.setKV(tx, y, ynk+1+j, t.key(z, j), t.val(z, j)); err != nil {
			return err
		}
	}
	if !t.isLeaf(y) {
		for j := 0; j <= znk; j++ {
			if err := tx.SetRef(t.childSlot(y, ynk+1+j), t.childRef(z, j)); err != nil {
				return err
			}
		}
	}
	if err := tx.SetU64(y+boNKeys, uint64(ynk+1+znk)); err != nil {
		return err
	}
	for j := i + 1; j < nk; j++ {
		if err := t.setKV(tx, n, j-1, t.key(n, j), t.val(n, j)); err != nil {
			return err
		}
	}
	for j := i + 2; j <= nk; j++ {
		if err := tx.SetRef(t.childSlot(n, j-1), t.childRef(n, j)); err != nil {
			return err
		}
	}
	if err := tx.SetU64(n+boNKeys, uint64(nk-1)); err != nil {
		return err
	}
	return tx.Free(zRef)
}

// Walk visits all key/value pairs in ascending key order.
func (t *BTree) Walk(fn func(k, v uint64) bool) {
	t.walk(t.lib.Deref(t.lib.LoadRef(t.rootAddr)), fn)
}

func (t *BTree) walk(n pmem.Addr, fn func(k, v uint64) bool) bool {
	if n == 0 {
		return true
	}
	nk := t.nkeys(n)
	leaf := t.isLeaf(n)
	for i := 0; i < nk; i++ {
		if !leaf && !t.walk(t.child(n, i), fn) {
			return false
		}
		if !fn(t.key(n, i), t.val(n, i)) {
			return false
		}
	}
	if !leaf {
		return t.walk(t.child(n, nk), fn)
	}
	return true
}

// Depth returns the tree height (tests/diagnostics).
func (t *BTree) Depth() int {
	d := 0
	n := t.lib.Deref(t.lib.LoadRef(t.rootAddr))
	for n != 0 {
		d++
		if t.isLeaf(n) {
			break
		}
		n = t.child(n, 0)
	}
	return d
}
