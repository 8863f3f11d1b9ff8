package chaos

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"puddles/internal/core"
	"puddles/internal/pmem"
)

func runSweep(t *testing.T, s Scenario, maxOffset, stride int64) Result {
	t.Helper()
	res, err := Sweep(s, maxOffset, stride)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	if res.Probes == 0 {
		t.Fatalf("%s: no crash points probed", s.Name)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("%s: %d violations:\n%s", s.Name, len(res.Violations),
			strings.Join(res.Violations, "\n"))
	}
	return res
}

func TestBankTransferSweep(t *testing.T) {
	res := runSweep(t, BankTransfer(8, 6), 2000, 13)
	t.Logf("bank-transfer: %d probes, %d completed", res.Probes, res.Completed)
}

func TestListAppendSweep(t *testing.T) {
	res := runSweep(t, ListAppend(5), 2000, 17)
	t.Logf("list-append: %d probes", res.Probes)
}

func TestTwinCountersSweep(t *testing.T) {
	res := runSweep(t, TwinCounters(6), 2000, 11)
	t.Logf("twin-counters: %d probes", res.Probes)
}

// multiSpace has several independent applications (each with its own
// pool and log space) mutate twin counters interleaved while crashes
// sweep the run. Recovery on reboot replays all pending log spaces
// through the daemon's concurrent worker pool; every pair must be
// equal after.
func multiSpace(clients, rounds int) Scenario {
	var (
		cs    []*core.Client
		pools []*core.Pool
	)
	root := func(e *Env, i int) pmem.Addr { return e.Addr(fmt.Sprintf("root%d", i)) }
	return Scenario{
		Name: "multi-space",
		Boot: BootDaemon(),
		Setup: func(e *Env) error {
			cs, pools = cs[:0], pools[:0]
			for i := 0; i < clients; i++ {
				c := e.Connect()
				ti, err := c.RegisterType(fmt.Sprintf("ms.pair%d", i), 16, nil)
				if err != nil {
					return err
				}
				p, err := c.CreatePool(fmt.Sprintf("ms%d", i), 0)
				if err != nil {
					return err
				}
				r, err := p.CreateRoot(ti.ID, 16)
				if err != nil {
					return err
				}
				e.Vars[fmt.Sprintf("root%d", i)] = uint64(r)
				cs, pools = append(cs, c), append(pools, p)
			}
			return nil
		},
		Mutate: func(e *Env) error {
			for round := 0; round < rounds; round++ {
				for i, c := range cs {
					r := root(e, i)
					if err := c.Run(pools[i], func(tx *core.Tx) error {
						v := e.Dev.LoadU64(r) + 1
						if err := tx.SetU64(r, v); err != nil {
							return err
						}
						return tx.RedoSetU64(r+8, v)
					}); err != nil {
						return err
					}
				}
			}
			return nil
		},
		Check: func(e *Env) error {
			for i := 0; i < clients; i++ {
				if a, b := e.Dev.LoadU64(root(e, i)), e.Dev.LoadU64(root(e, i)+8); a != b {
					return fmt.Errorf("space %d: counters diverged after recovery: %d vs %d", i, a, b)
				}
			}
			return nil
		},
	}
}

func TestMultiSpaceCrashSweep(t *testing.T) {
	res := runSweep(t, multiSpace(4, 4), 4000, 53)
	t.Logf("multi-space: %d probes", res.Probes)
}

// TestSweepDetectsBrokenInvariant checks the harness itself: a real
// invariant run over corrupted state, a planted failure after a passing
// Check under each boot shape, and a reboot that fails must each be
// reported as a violation at every probe, proving the sweep can fail.
func TestSweepDetectsBrokenInvariant(t *testing.T) {
	bank := BankTransfer(4, 3)
	bankCheck := bank.Check
	bank.Check = func(e *Env) error {
		if err := bankCheck(e); err != nil {
			return err
		}
		base := e.Addr("base")
		e.Dev.StoreU64(base, e.Dev.LoadU64(base)+1) // corrupt
		return bankCheck(e)
	}
	res, err := Sweep(bank, 100, 29)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes == 0 || len(res.Violations) != res.Probes {
		t.Fatalf("corrupted bank: %d violations over %d probes, want one per probe", len(res.Violations), res.Probes)
	}
	for _, v := range res.Violations {
		if !strings.HasSuffix(v, "total = 4001, want 4000") {
			t.Fatalf("corrupted bank reported as %q, want the real check's total mismatch", v)
		}
	}

	planted := errors.New("planted failure")
	for _, s := range []Scenario{BankTransfer(4, 3), RegistryChurn(1), ShardedLogChurn(1)} {
		check := s.Check
		s.Check = func(e *Env) error {
			if err := check(e); err != nil {
				return err
			}
			return planted
		}
		res, err := Sweep(s, 100, 29)
		if err != nil {
			t.Fatal(err)
		}
		if res.Probes == 0 || len(res.Violations) != res.Probes {
			t.Fatalf("%s: %d violations over %d probes, want one per probe", s.Name, len(res.Violations), res.Probes)
		}
		for _, v := range res.Violations {
			if !strings.HasSuffix(v, planted.Error()) {
				t.Fatalf("%s: violation %q is not the planted one", s.Name, v)
			}
		}
	}

	s := RegistryChurn(1)
	boot := s.Boot
	s.Boot = func(e *Env, reboot bool) error {
		if reboot {
			return planted
		}
		return boot(e, reboot)
	}
	res, err = Sweep(s, 100, 29)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes == 0 || len(res.Violations) != res.Probes {
		t.Fatalf("failed reboot: %d violations over %d probes, want one per probe", len(res.Violations), res.Probes)
	}
	for i, v := range res.Violations {
		off := 1 + 29*i
		if prefix := fmt.Sprintf("offset %d seed %d ", off, off); !strings.HasPrefix(v, prefix) ||
			!strings.HasSuffix(v, "reboot: "+planted.Error()) {
			t.Fatalf("failed reboot reported as %q, want %q...reboot: %v", v, prefix, planted)
		}
	}
}
