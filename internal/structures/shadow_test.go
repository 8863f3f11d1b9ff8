package structures

import (
	"errors"
	"math/rand"
	"testing"

	"puddles/internal/baselines/puddleslib"
	"puddles/internal/kvstore"
	"puddles/internal/pmem"
)

func shadowEnv(t testing.TB) *puddleslib.Lib {
	t.Helper()
	pl, err := puddleslib.New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pl.Close() })
	return pl
}

func TestShadowMapPutGetDelete(t *testing.T) {
	pl := shadowEnv(t)
	m, err := NewShadowMap(pl.Client(), pl.Pool())
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	model := make(map[uint64]uint64, n)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		k := rng.Uint64() % 1000
		v := rng.Uint64()
		if err := m.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	if m.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(model))
	}
	for k, v := range model {
		got, ok := m.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v want %d", k, got, ok, v)
		}
	}
	if _, ok := m.Get(1 << 60); ok {
		t.Fatal("Get on absent key succeeded")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Delete half, including some absent keys.
	for k := range model {
		if k%2 == 0 {
			ok, err := m.Delete(k)
			if err != nil || !ok {
				t.Fatalf("Delete(%d) = %v,%v", k, ok, err)
			}
			delete(model, k)
		}
	}
	if ok, err := m.Delete(1 << 60); err != nil || ok {
		t.Fatalf("Delete absent = %v,%v", ok, err)
	}
	if m.Len() != len(model) {
		t.Fatalf("after delete Len = %d, want %d", m.Len(), len(model))
	}
	seen := map[uint64]uint64{}
	m.Walk(func(k, v uint64) bool { seen[k] = v; return true })
	if len(seen) != len(model) {
		t.Fatalf("Walk saw %d, want %d", len(seen), len(model))
	}
	for k, v := range model {
		if seen[k] != v {
			t.Fatalf("Walk[%d] = %d, want %d", k, seen[k], v)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestShadowMapReopen(t *testing.T) {
	pl := shadowEnv(t)
	m, err := NewShadowMap(pl.Client(), pl.Pool())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		if err := m.Put(i, i*3+1); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 300; i += 3 {
		if _, err := m.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	m.Sync()
	m2, err := OpenShadowMap(pl.Client(), pl.Pool(), m.Desc())
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != m.Len() {
		t.Fatalf("reopened Len = %d, want %d", m2.Len(), m.Len())
	}
	for i := uint64(0); i < 300; i++ {
		want, wantOK := m.Get(i)
		got, ok := m2.Get(i)
		if ok != wantOK || got != want {
			t.Fatalf("reopened Get(%d) = %d,%v want %d,%v", i, got, ok, want, wantOK)
		}
	}
	if err := m2.Validate(); err != nil {
		t.Fatal(err)
	}
	// The reopened handle keeps working (fresh free list is sound).
	for i := uint64(1000); i < 1100; i++ {
		if err := m2.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := m2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShadowMapRefusesStraySlots plants, in a child word mid-trie, an
// address the map's census must not adopt: a slot of another map in
// the same pool, and a slot of its own trie that is already reachable
// elsewhere. Both are well-formed nodes, so only the bounds and
// uniqueness checks can refuse them.
func TestShadowMapRefusesStraySlots(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stray func(own, other *ShadowMap) pmem.Addr
	}{
		{"another map's slot", func(_, other *ShadowMap) pmem.Addr { _, leaf, _ := other.slot(5); return leaf }},
		{"own slot twice", func(own, _ *ShadowMap) pmem.Addr { _, leaf, _ := own.slot(2); return leaf }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := shadowEnv(t)
			c, pool, dev := pl.Client(), pl.Pool(), pl.Device()
			var maps [2]*ShadowMap
			for i := range maps {
				m, err := NewShadowMap(c, pool)
				if err != nil {
					t.Fatal(err)
				}
				for k := uint64(0); k < 64; k++ {
					if err := m.Put(k, k); err != nil {
						t.Fatal(err)
					}
				}
				m.Sync()
				maps[i] = m
			}
			// Keys 0..63 fill three internal levels: the root's child 0
			// is an internal node whose child 1 is another one.
			root := pmem.Addr(dev.LoadU64(maps[0].Desc() + 8))
			word := pmem.Addr(dev.LoadU64(root+8)) + 16
			dev.StoreU64(word, uint64(tc.stray(maps[0], maps[1])))
			dev.Persist(word, 8)
			if _, err := OpenShadowMap(c, pool, maps[0].Desc()); !errors.Is(err, ErrShadowCorrupt) {
				t.Fatalf("OpenShadowMap = %v, want ErrShadowCorrupt", err)
			}
		})
	}
}

func TestShadowQueueFIFO(t *testing.T) {
	pl := shadowEnv(t)
	q, err := NewShadowQueue(pl.Client(), pl.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := q.Dequeue(); err != nil || ok {
		t.Fatalf("Dequeue empty = %v,%v", ok, err)
	}
	for i := uint64(1); i <= 500; i++ {
		if err := q.Enqueue(i * 7); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 500 {
		t.Fatalf("Len = %d", q.Len())
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 200; i++ {
		v, ok, err := q.Dequeue()
		if err != nil || !ok || v != i*7 {
			t.Fatalf("Dequeue = %d,%v,%v want %d", v, ok, err, i*7)
		}
	}
	// Interleave to exercise desc churn across the wrap.
	for i := uint64(501); i <= 600; i++ {
		if err := q.Enqueue(i * 7); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := q.Dequeue(); err != nil || !ok {
			t.Fatalf("Dequeue = %v,%v", ok, err)
		}
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	q.Sync()
	q2, err := OpenShadowQueue(pl.Client(), pl.Pool(), q.Desc())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := q2.Values(), q.Values(); len(got) != len(want) {
		t.Fatalf("reopened Values len %d, want %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Values[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	}
	if err := q2.Validate(); err != nil {
		t.Fatal(err)
	}
	// Drain fully through the reopened handle.
	for q2.Len() > 0 {
		if _, ok, err := q2.Dequeue(); err != nil || !ok {
			t.Fatalf("drain = %v,%v", ok, err)
		}
	}
	if err := q2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShadowFencesPerOp is the fence-accounting regression: a shadow
// map update must average ≤ 2 fences/op (one shadow barrier, plus
// amortized extent carves) while the undo-log kvstore pays ≥ 3
// (per-append log fence, commit stage 1, commit-point persist, log
// reset persist).
func TestShadowFencesPerOp(t *testing.T) {
	const n = 512

	pl := shadowEnv(t)
	m, err := NewShadowMap(pl.Client(), pl.Pool())
	if err != nil {
		t.Fatal(err)
	}
	dev := pl.Device()
	base := dev.Stats().Fences
	for i := uint64(0); i < n; i++ {
		if err := m.Put(i, i^0xdead); err != nil {
			t.Fatal(err)
		}
	}
	shadowFences := dev.Stats().Fences - base
	if shadowFences > 2*n {
		t.Fatalf("shadow map: %d fences for %d puts (> 2/op)", shadowFences, n)
	}

	pl2 := shadowEnv(t)
	kv, err := kvstore.New(pl2, kvstore.Options{Buckets: 256, ValueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	dev2 := pl2.Device()
	base2 := dev2.Stats().Fences
	val := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := uint64(0); i < n; i++ {
		if err := kv.Put(i, val); err != nil {
			t.Fatal(err)
		}
	}
	undoFences := dev2.Stats().Fences - base2
	if undoFences < 3*n {
		t.Fatalf("undo kvstore: %d fences for %d puts (< 3/op — accounting drifted?)", undoFences, n)
	}
	if shadowFences >= undoFences {
		t.Fatalf("shadow (%d) not cheaper than undo (%d)", shadowFences, undoFences)
	}
	t.Logf("fences/op: shadow %.2f, undo %.2f", float64(shadowFences)/n, float64(undoFences)/n)
}

// loadShadowMap boots a fresh stack and fills a new map with keys
// 0..n-1.
func loadShadowMap(t testing.TB, n uint64) (*puddleslib.Lib, *ShadowMap) {
	t.Helper()
	pl := shadowEnv(t)
	m, err := NewShadowMap(pl.Client(), pl.Pool())
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		if err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	return pl, m
}

// TestShadowPutCosts pins what a carve-free ShadowMap.Put costs: Go
// heap allocations, exactly one fence, and the flushes of a Put that
// writes one leaf line and swings one trie word (integers, so a
// deterministic key walk repeats them exactly).
func TestShadowPutCosts(t *testing.T) {
	const (
		records = 20000
		puts    = 4000
	)
	pl, m := loadShadowMap(t, records)
	dev := pl.Device()
	i := uint64(0)
	put := func() {
		k := (i * 7919) % records
		i++
		if err := m.Put(k, i); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 100; j++ { // settle the free list and limbo buffers
		put()
	}
	// An update commits below the root: the root word stays put and
	// the one slot it retires is the old leaf.
	root := dev.LoadU64(m.Desc() + 8)
	put()
	if got := dev.LoadU64(m.Desc() + 8); got != root {
		t.Fatalf("an update moved the root word from %#x to %#x", root, got)
	}
	if len(m.s.limbo) != 1 {
		t.Fatalf("an update put %d slots into limbo, want 1", len(m.s.limbo))
	}
	live0 := pl.Pool().LiveObjects()
	st0 := dev.Stats()
	for j := 0; j < puts; j++ {
		put()
	}
	st := dev.Stats()
	if live := pl.Pool().LiveObjects(); live != live0 {
		t.Fatalf("the walk carved %d extents; it must stay carve-free", live-live0)
	}
	fences := st.Fences - st0.Fences
	flushes := st.Flushes - st0.Flushes
	requests := st.FlushRequests - st0.FlushRequests
	t.Logf("per Put: %.3f fences, %.3f flushes, %.3f flush requests",
		float64(fences)/puts, float64(flushes)/puts, float64(requests)/puts)
	if fences != puts {
		t.Fatalf("%d fences for %d Puts, want exactly one each", fences, puts)
	}
	// Per Put: the leaf's three stores, three requests merged into one
	// line flush, and the swung word's own flush.
	if flushes != 2*puts || requests != 3*puts {
		t.Fatalf("%d flushes and %d flush requests over the walk, want %d and %d",
			flushes, requests, 2*puts, 3*puts)
	}
	allocs := testing.AllocsPerRun(1000, put)
	t.Logf("per Put: %v heap allocations", allocs)
	if allocs > 2 {
		t.Fatalf("%v heap allocations per Put, want <= 2", allocs)
	}
}

// BenchmarkShadowMap_Put times a carve-free update on a 20k-key map.
func BenchmarkShadowMap_Put(b *testing.B) {
	const records = 20000
	_, m := loadShadowMap(b, records)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Put(uint64(i*7919)%records, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestShadowRetiredSlotReuse churns two maps and a queue in one pool
// with a seeded mix of updates, inserts, deletes (present and absent)
// and Syncs. Each structure reuses one buffer for the slots its ops
// retire, so a retiree landing in a buffer still read as limbo — or a
// limbo slot recycled twice — shows up in the model or the census.
func TestShadowRetiredSlotReuse(t *testing.T) {
	const ops = 6000
	pl := shadowEnv(t)
	c, pool := pl.Client(), pl.Pool()
	var maps [2]*ShadowMap
	var models [2]map[uint64]uint64
	for i := range maps {
		m, err := NewShadowMap(c, pool)
		if err != nil {
			t.Fatal(err)
		}
		maps[i], models[i] = m, map[uint64]uint64{}
	}
	q, err := NewShadowQueue(c, pool)
	if err != nil {
		t.Fatal(err)
	}
	var qmodel []uint64
	validate := func(op int) {
		t.Helper()
		for i, m := range maps {
			if err := m.Validate(); err != nil {
				t.Fatalf("op %d: map %d: %v", op, i, err)
			}
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("op %d: queue: %v", op, err)
		}
	}
	rng := rand.New(rand.NewSource(37))
	for op := 0; op < ops; op++ {
		i := rng.Intn(2)
		m, model := maps[i], models[i]
		k := uint64(rng.Intn(400))
		switch r := rng.Intn(100); {
		case r < 45:
			v := rng.Uint64()
			if err := m.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case r < 65:
			_, want := model[k]
			got, err := m.Delete(k)
			if err != nil || got != want {
				t.Fatalf("op %d: Delete(%d) = %v,%v want %v", op, k, got, err, want)
			}
			delete(model, k)
		case r < 72:
			if ok, err := m.Delete(1000 + k); err != nil || ok {
				t.Fatalf("op %d: Delete of an absent key = %v,%v", op, ok, err)
			}
		case r < 84:
			v := rng.Uint64()
			if err := q.Enqueue(v); err != nil {
				t.Fatal(err)
			}
			qmodel = append(qmodel, v)
		case r < 96:
			v, ok, err := q.Dequeue()
			if err != nil || ok != (len(qmodel) > 0) {
				t.Fatalf("op %d: Dequeue = %v,%v with %d queued", op, ok, err, len(qmodel))
			}
			if ok {
				if v != qmodel[0] {
					t.Fatalf("op %d: Dequeue = %d, want %d", op, v, qmodel[0])
				}
				qmodel = qmodel[1:]
			}
		default:
			m.Sync()
			q.Sync()
			validate(op)
		}
	}
	validate(ops)
	for i, m := range maps {
		if m.Len() != len(models[i]) {
			t.Fatalf("map %d: Len = %d, want %d", i, m.Len(), len(models[i]))
		}
		for k, v := range models[i] {
			if got, ok := m.Get(k); !ok || got != v {
				t.Fatalf("map %d: Get(%d) = %d,%v want %d", i, k, got, ok, v)
			}
		}
	}
	if got := q.Values(); len(got) != len(qmodel) {
		t.Fatalf("queue holds %d values, want %d", len(got), len(qmodel))
	} else {
		for i := range got {
			if got[i] != qmodel[i] {
				t.Fatalf("queue[%d] = %d, want %d", i, got[i], qmodel[i])
			}
		}
	}
	for i, m := range maps {
		m.Sync()
		m2, err := OpenShadowMap(c, pool, m.Desc())
		if err != nil {
			t.Fatal(err)
		}
		if err := m2.Validate(); err != nil {
			t.Fatalf("reopened map %d: %v", i, err)
		}
		if m2.Len() != len(models[i]) {
			t.Fatalf("reopened map %d: Len = %d, want %d", i, m2.Len(), len(models[i]))
		}
	}
}
