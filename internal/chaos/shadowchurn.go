package chaos

import (
	"fmt"

	"puddles/internal/structures"
)

// shadowChurnOp applies op j of the deterministic churn sequence to a
// volatile model: puts and deletes over a small key universe on the
// map side, enqueue/dequeue bursts on the queue side. The sequence is
// shared by Mutate (against the persistent structures) and Check
// (replayed to every possible committed prefix), so the two can never
// drift apart.
func shadowChurnOp(j int, m map[uint64]uint64, q []uint64) (map[uint64]uint64, []uint64) {
	switch j % 4 {
	case 0:
		m[uint64(j*7)%61] = uint64(j) + 1
	case 1:
		q = append(q, uint64(j)*3+1)
	case 2:
		delete(m, uint64(j*5)%61)
	default:
		if len(q) > 0 {
			q = q[1:]
		}
	}
	return m, q
}

// ShadowChurn sweeps power failures across the shadow structures'
// whole commit pipeline: new nodes under construction, the
// single-fence publish, and the limbo reclamation of retired slots.
// Each op commits by one atomic pointer store (the queue's root, or
// the one map trie word that reaches the changed leaf or subtree), so
// the recovered {map, queue} pair must equal the committed state after
// some prefix of the op sequence — never a torn mixture of two ops —
// and reopening must account for every shadow slot (structure census)
// with every pool heap structurally valid: a crash mid-build,
// mid-publish, or mid-reclaim may leak nothing.
func ShadowChurn(ops int) Scenario {
	return Scenario{
		Name: "shadow-churn",
		Setup: func(e *Env) error {
			m, err := structures.NewShadowMap(e.Client, e.Pool)
			if err != nil {
				return err
			}
			q, err := structures.NewShadowQueue(e.Client, e.Pool)
			if err != nil {
				return err
			}
			// A crash-free, synced warm-up so the sweep's early offsets
			// land inside established trees, not structure creation,
			// and no crash can take the warm-up back.
			if err := m.Put(500, 1); err != nil {
				return err
			}
			if err := q.Enqueue(9999); err != nil {
				return err
			}
			m.Sync()
			q.Sync()
			e.Vars["mapdesc"] = uint64(m.Desc())
			e.Vars["qdesc"] = uint64(q.Desc())
			return nil
		},
		Mutate: func(e *Env) error {
			m, err := structures.OpenShadowMap(e.Client, e.Pool, e.Addr("mapdesc"))
			if err != nil {
				return err
			}
			q, err := structures.OpenShadowQueue(e.Client, e.Pool, e.Addr("qdesc"))
			if err != nil {
				return err
			}
			for j := 0; j < ops; j++ {
				switch j % 4 {
				case 0:
					err = m.Put(uint64(j*7)%61, uint64(j)+1)
				case 1:
					err = q.Enqueue(uint64(j)*3 + 1)
				case 2:
					_, err = m.Delete(uint64(j*5) % 61)
				default:
					_, _, err = q.Dequeue()
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
			q, err := structures.OpenShadowQueue(e.Client, e.Pool, e.Addr("qdesc"))
			if err != nil {
				return fmt.Errorf("reopen queue: %w", err)
			}
			// Recovery census: reachable + free slots must account for
			// every slot ever carved — a leaked shadow node fails here.
			if err := m.Validate(); err != nil {
				return fmt.Errorf("map census: %w", err)
			}
			if err := q.Validate(); err != nil {
				return fmt.Errorf("queue census: %w", err)
			}
			got := map[uint64]uint64{}
			m.Walk(func(k, v uint64) bool { got[k] = v; return true })
			gotQ := q.Values()

			// The committed state must equal the model after some prefix
			// k of the op sequence (both structures at the same k: ops
			// are sequential, each publishes atomically).
			model := map[uint64]uint64{500: 1}
			qmodel := []uint64{9999}
			for k := 0; k <= ops; k++ {
				if k > 0 {
					model, qmodel = shadowChurnOp(k-1, model, qmodel)
				}
				if shadowStateEqual(got, gotQ, model, qmodel) {
					// Usability probe: the recovered structures must keep
					// serving updates and stay census-clean.
					if err := m.Put(1<<40, 42); err != nil {
						return fmt.Errorf("post-recovery put: %w", err)
					}
					if err := q.Enqueue(43); err != nil {
						return fmt.Errorf("post-recovery enqueue: %w", err)
					}
					if err := m.Validate(); err != nil {
						return fmt.Errorf("census after post-recovery ops: %w", err)
					}
					for i, h := range e.Pool.Heaps() {
						if err := h.Validate(); err != nil {
							return fmt.Errorf("heap %d after recovery: %w", i, err)
						}
					}
					return nil
				}
			}
			return fmt.Errorf("recovered state (map %d keys, queue %d values) matches no committed prefix",
				len(got), len(gotQ))
		},
	}
}

func shadowStateEqual(gotM map[uint64]uint64, gotQ []uint64, m map[uint64]uint64, q []uint64) bool {
	if len(gotM) != len(m) || len(gotQ) != len(q) {
		return false
	}
	for k, v := range m {
		if gotM[k] != v {
			return false
		}
	}
	for i, v := range q {
		if gotQ[i] != v {
			return false
		}
	}
	return true
}
