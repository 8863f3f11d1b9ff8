package chaos

import (
	"fmt"
	"testing"

	"puddles/internal/structures"
)

// TestShadowChurnSweep power-fails the shadow-structure commit
// pipeline at swept offsets: mid node build, mid publish, mid limbo
// reclaim. Any recovered state that is not a committed prefix, or any
// leaked shadow slot, is a violation.
func TestShadowChurnSweep(t *testing.T) {
	res := runSweep(t, ShadowChurn(64), 4000, 7)
	t.Logf("shadow-churn: %d probes, %d completed", res.Probes, res.Completed)
}

// TestShadowMapDepthSweep crashes every persist event of ShadowMap ops
// that commit by one word five or more levels down a preloaded trie,
// under two seeds and DropVolatile.
func TestShadowMapDepthSweep(t *testing.T) {
	res := runSweep(t, ShadowMapDepth(), 4000, 1)
	if res.Completed != 1 {
		t.Fatal("sweep ended before Mutate ran to completion")
	}
	t.Logf("shadow-map-depth: %d probes", res.Probes)
}

// shadowDepthKeys is how many keys ShadowMapDepth preloads: keys
// 0..999 put every leaf five internal levels below the root.
const shadowDepthKeys = 1000

// shadowDepthOp is one op of ShadowMapDepth's sequence.
type shadowDepthOp struct {
	del      bool
	key, val uint64
}

// shadowDepthOps lists, for two resident keys b, each kind of single-
// word commit deep in the trie: an update of b, an insert of b+2^20
// that splits b's leaf into a chain of six internal nodes, a delete of
// an absent key that ends on b's leaf, a delete of b+2^20 (its leaf
// alone goes), a delete of b that collapses the whole chain, and an
// insert of b into the emptied child word.
func shadowDepthOps() []shadowDepthOp {
	var ops []shadowDepthOp
	for i, b := range []uint64{7, 602} {
		v := uint64(i+1) << 32
		ops = append(ops,
			shadowDepthOp{key: b, val: v | 1},
			shadowDepthOp{key: b + 1<<20, val: v | 2},
			shadowDepthOp{del: true, key: b + 1<<30},
			shadowDepthOp{del: true, key: b + 1<<20},
			shadowDepthOp{del: true, key: b},
			shadowDepthOp{key: b, val: v | 3},
		)
	}
	return ops
}

// ShadowMapDepth sweeps power failures, at every persist event, across
// ShadowMap ops that commit deep in a preloaded trie: each swings or
// zeroes one child word five or more levels down. The recovered map
// must equal the preload plus some prefix of the ops, and its census
// must account for every slot.
func ShadowMapDepth() Scenario {
	ops := shadowDepthOps()
	return Scenario{
		Name:         "shadow-map-depth",
		Seeds:        2,
		DropVolatile: true,
		Setup: func(e *Env) error {
			m, err := structures.NewShadowMap(e.Client, e.Pool)
			if err != nil {
				return err
			}
			for k := uint64(0); k < shadowDepthKeys; k++ {
				if err := m.Put(k, k); err != nil {
					return err
				}
			}
			m.Sync()
			e.Vars["mapdesc"] = uint64(m.Desc())
			return nil
		},
		Mutate: func(e *Env) error {
			m, err := structures.OpenShadowMap(e.Client, e.Pool, e.Addr("mapdesc"))
			if err != nil {
				return err
			}
			for _, op := range ops {
				if op.del {
					_, err = m.Delete(op.key)
				} else {
					err = m.Put(op.key, op.val)
				}
				if err != nil {
					return err
				}
			}
			return nil
		},
		Check: func(e *Env) error {
			m, err := structures.OpenShadowMap(e.Client, e.Pool, e.Addr("mapdesc"))
			if err != nil {
				return fmt.Errorf("reopen map: %w", err)
			}
			if err := m.Validate(); err != nil {
				return fmt.Errorf("map census: %w", err)
			}
			got := map[uint64]uint64{}
			m.Walk(func(k, v uint64) bool { got[k] = v; return true })
			model := make(map[uint64]uint64, shadowDepthKeys+1)
			for k := uint64(0); k < shadowDepthKeys; k++ {
				model[k] = k
			}
			for i := 0; ; i++ {
				if shadowStateEqual(got, nil, model, nil) {
					return nil
				}
				if i == len(ops) {
					return fmt.Errorf("recovered map (%d keys) matches no committed prefix", len(got))
				}
				if ops[i].del {
					delete(model, ops[i].key)
				} else {
					model[ops[i].key] = ops[i].val
				}
			}
		},
	}
}
