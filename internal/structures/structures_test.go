package structures

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"puddles/internal/baselines/pmdk"
	"puddles/internal/baselines/puddleslib"
	"puddles/internal/pmem"
	"puddles/internal/pmlib"
)

func libsUnderTest(t *testing.T) []pmlib.Lib {
	t.Helper()
	pl, err := puddleslib.New()
	if err != nil {
		t.Fatal(err)
	}
	pk, err := pmdk.NewLib(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pl.Close(); pk.Close() })
	return []pmlib.Lib{pl, pk}
}

func TestListAppendPopSum(t *testing.T) {
	for _, lib := range libsUnderTest(t) {
		lib := lib
		t.Run(lib.Name(), func(t *testing.T) {
			l, err := NewList(lib)
			if err != nil {
				t.Fatal(err)
			}
			var want uint64
			for i := uint64(1); i <= 200; i++ {
				if err := l.Append(i); err != nil {
					t.Fatal(err)
				}
				want += i
			}
			if got := l.Sum(); got != want {
				t.Fatalf("Sum = %d, want %d", got, want)
			}
			if l.Len() != 200 {
				t.Fatalf("Len = %d", l.Len())
			}
			for i := uint64(1); i <= 200; i++ {
				v, err := l.PopHead()
				if err != nil {
					t.Fatal(err)
				}
				if v != i {
					t.Fatalf("PopHead = %d, want %d", v, i)
				}
			}
			if _, err := l.PopHead(); err == nil {
				t.Fatal("PopHead on empty list succeeded")
			}
			// Reusable after emptying.
			if err := l.Append(7); err != nil {
				t.Fatal(err)
			}
			if l.Len() != 1 {
				t.Fatal("append after empty failed")
			}
		})
	}
}

func TestBTreeInsertSearch(t *testing.T) {
	for _, lib := range libsUnderTest(t) {
		lib := lib
		t.Run(lib.Name(), func(t *testing.T) {
			bt, err := NewBTree(lib)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			ref := make(map[uint64]uint64)
			for i := 0; i < 2000; i++ {
				k := uint64(rng.Intn(5000)) + 1
				v := rng.Uint64()
				if err := bt.Insert(k, v); err != nil {
					t.Fatalf("insert %d: %v", k, err)
				}
				ref[k] = v
			}
			for k, v := range ref {
				got, ok := bt.Search(k)
				if !ok || got != v {
					t.Fatalf("Search(%d) = %d,%v want %d", k, got, ok, v)
				}
			}
			if _, ok := bt.Search(999999); ok {
				t.Fatal("found absent key")
			}
			// Ordered walk matches the reference.
			var keys []uint64
			bt.Walk(func(k, v uint64) bool {
				keys = append(keys, k)
				if ref[k] != v {
					t.Fatalf("Walk value mismatch at %d", k)
				}
				return true
			})
			if len(keys) != len(ref) {
				t.Fatalf("Walk visited %d keys, want %d", len(keys), len(ref))
			}
			if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
				t.Fatal("Walk not in key order")
			}
		})
	}
}

func TestBTreeDelete(t *testing.T) {
	for _, lib := range libsUnderTest(t) {
		lib := lib
		t.Run(lib.Name(), func(t *testing.T) {
			bt, err := NewBTree(lib)
			if err != nil {
				t.Fatal(err)
			}
			const n = 1000
			for i := uint64(1); i <= n; i++ {
				if err := bt.Insert(i, i*10); err != nil {
					t.Fatal(err)
				}
			}
			// Delete the odd keys.
			for i := uint64(1); i <= n; i += 2 {
				found, err := bt.Delete(i)
				if err != nil {
					t.Fatal(err)
				}
				if !found {
					t.Fatalf("Delete(%d) did not find the key", i)
				}
			}
			for i := uint64(1); i <= n; i++ {
				_, ok := bt.Search(i)
				if i%2 == 1 && ok {
					t.Fatalf("deleted key %d still present", i)
				}
				if i%2 == 0 && !ok {
					t.Fatalf("surviving key %d lost", i)
				}
			}
			if found, _ := bt.Delete(424242); found {
				t.Fatal("deleted an absent key")
			}
		})
	}
}

// TestBTreeMatchesMap drives a fresh tree per seed through 1,500 random
// inserts and deletes over 512 keys (one op in three a delete) and
// checks the whole tree against a map after every op. The tree grows to
// ≈ 280 keys, deep enough that deletes empty leaves under internal keys.
// A delete that does not rebalance fails the node-size check on every
// seed, and on some (16 and 36 among them) it loses keys outright.
func TestBTreeMatchesMap(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		lib, err := puddleslib.New()
		if err != nil {
			t.Fatal(err)
		}
		bt, err := NewBTree(lib)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		ref := make(map[uint64]uint64)
		for i := 0; i < 1500; i++ {
			op := uint16(rng.Intn(1 << 16))
			k := uint64(op%512) + 1
			if op%3 == 0 && len(ref) > 0 {
				found, err := bt.Delete(k)
				if err != nil {
					t.Fatal(err)
				}
				if _, in := ref[k]; found != in {
					t.Fatalf("seed %d op %d: Delete(%d) found=%v, map has it: %v", seed, i, k, found, in)
				}
				delete(ref, k)
			} else {
				v := uint64(op) * 31
				if err := bt.Insert(k, v); err != nil {
					t.Fatal(err)
				}
				ref[k] = v
			}
			if err := checkBTree(bt, ref); err != nil {
				t.Fatalf("seed %d op %d (key %d): %v", seed, i, k, err)
			}
		}
		lib.Close()
	}
}

// checkBTree compares bt with ref: an in-order walk yields exactly ref's
// keys, ascending, with their values; every leaf sits at one depth; and
// every node but the root holds btMinKeys to btMaxKeys keys.
func checkBTree(bt *BTree, ref map[uint64]uint64) error {
	want := make([]uint64, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []uint64
	leafDepth := -1
	var visit func(n pmem.Addr, depth int, root bool) error
	visit = func(n pmem.Addr, depth int, root bool) error {
		nk := bt.nkeys(n)
		if nk > btMaxKeys || (!root && nk < btMinKeys) {
			return fmt.Errorf("node at depth %d holds %d keys", depth, nk)
		}
		leaf := bt.isLeaf(n)
		if leaf {
			if leafDepth >= 0 && depth != leafDepth {
				return fmt.Errorf("leaves at depths %d and %d", leafDepth, depth)
			}
			leafDepth = depth
		}
		for i := 0; i <= nk; i++ {
			if !leaf {
				if err := visit(bt.child(n, i), depth+1, false); err != nil {
					return err
				}
			}
			if i < nk {
				k := bt.key(n, i)
				if v, ok := ref[k]; !ok || bt.val(n, i) != v {
					return fmt.Errorf("key %d: value %d, map has %d (present: %v)", k, bt.val(n, i), v, ok)
				}
				got = append(got, k)
			}
		}
		return nil
	}
	if root := bt.lib.Deref(bt.lib.LoadRef(bt.rootAddr)); root != 0 {
		if err := visit(root, 0, true); err != nil {
			return err
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("tree holds %d keys, map %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("in-order key %d is %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

func TestRawListCodecs(t *testing.T) {
	const n = 1 << 12
	for _, mk := range []func(dev *pmem.Device) PtrCodec{
		func(*pmem.Device) PtrCodec { return NativeCodec{} },
		func(*pmem.Device) PtrCodec { return NewFatCodec(0x100000) },
	} {
		dev := pmem.New()
		codec := mk(dev)
		l := NewRawList(dev, codec, 0x100000, 64<<20)
		l.Build(n)
		want := uint64(n) * (n + 1) / 2
		if got := l.Traverse(); got != want {
			t.Fatalf("%s: Traverse = %d, want %d", codec.Name(), got, want)
		}
	}
}

func TestRawTreeCodecs(t *testing.T) {
	const height = 10
	nodes := uint64(1<<height) - 1
	want := nodes * (nodes + 1) / 2
	for _, mk := range []func() PtrCodec{
		func() PtrCodec { return NativeCodec{} },
		func() PtrCodec { return NewFatCodec(0x100000) },
	} {
		dev := pmem.New()
		codec := mk()
		tr := NewRawTree(dev, codec, 0x100000)
		tr.Build(height)
		if got := tr.TraverseDF(); got != want {
			t.Fatalf("%s: TraverseDF = %d, want %d", codec.Name(), got, want)
		}
	}
}

func TestFatCodecNullAndForeign(t *testing.T) {
	dev := pmem.New()
	c := NewFatCodec(0x1000)
	c.Store(dev, 0x100, 0)
	if c.Load(dev, 0x100) != 0 {
		t.Fatal("null fat pointer round trip failed")
	}
	dev.StoreU64(0x200, 77) // unknown pool id
	dev.StoreU64(0x208, 8)
	if c.Load(dev, 0x200) != 0 {
		t.Fatal("unknown pool id dereferenced")
	}
}
