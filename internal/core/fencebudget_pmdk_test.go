package core_test

import (
	"testing"

	"puddles/internal/baselines/pmdk"
	"puddles/internal/baselines/puddleslib"
	"puddles/internal/pmem"
	"puddles/internal/pmlib"
)

// TestUndoCommitFenceBudgetVsPMDK runs the same transactions through
// pmlib on Puddles and on this repository's PMDK baseline. The paper
// claims Puddles is at least as fast as PMDK; under any fence cost
// above zero that needs at most as many ordering points.
func TestUndoCommitFenceBudgetVsPMDK(t *testing.T) {
	pl, err := puddleslib.New()
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	pk, err := pmdk.NewLib(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	defer pk.Close()

	buf := make([]byte, 100)
	txs := []struct {
		name string
		fn   func(lib pmlib.Lib, root pmlib.Ref) func(pmlib.Tx) error
	}{
		{"set100", func(lib pmlib.Lib, root pmlib.Ref) func(pmlib.Tx) error {
			return func(tx pmlib.Tx) error { return tx.Set(lib.Deref(root), buf) }
		}},
		{"3 x set8", func(lib pmlib.Lib, root pmlib.Ref) func(pmlib.Tx) error {
			return func(tx pmlib.Tx) error {
				for i := 0; i < 3; i++ {
					if err := tx.SetU64(lib.Deref(root)+pmem.Addr(i*256), uint64(i)); err != nil {
						return err
					}
				}
				return nil
			}
		}},
	}
	for _, c := range txs {
		cost := func(lib pmlib.Lib) uint64 {
			root, err := lib.Root(4096)
			if err != nil {
				t.Fatal(err)
			}
			fn := c.fn(lib, root)
			if err := lib.Run(fn); err != nil { // warm up
				t.Fatal(err)
			}
			f0 := lib.Device().Stats().Fences
			if err := lib.Run(fn); err != nil {
				t.Fatal(err)
			}
			return lib.Device().Stats().Fences - f0
		}
		puddles, base := cost(pl), cost(pk)
		t.Logf("%s: puddles %d fences, pmdk %d", c.name, puddles, base)
		if puddles > base {
			t.Fatalf("%s: puddles pays %d fences, the PMDK baseline %d", c.name, puddles, base)
		}
	}
}
