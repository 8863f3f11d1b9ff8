// Package chaos is the crash-injection harness behind the paper's
// §5.1 correctness check ("we inject crashes into Puddles' runtime and
// run system-supported recovery ... and find that Puddles recover
// application data to a consistent and correct state every time").
//
// A Scenario describes a workload in three phases: Setup builds
// initial state, Mutate runs transactions, Check validates an
// invariant. Sweep executes the scenario once per crash offset (and,
// when the scenario asks for it, per chaos seed and once more with
// every unflushed line lost): the device is armed to fail at the k-th
// persistence event inside Mutate, the "machine" reboots (fresh daemon
// on the surviving bytes — which runs recovery before serving), and
// Check runs against a fresh client. Any invariant violation at any
// crash point is a crash-consistency bug.
package chaos

import (
	"fmt"

	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/pmem"
	"puddles/internal/ptypes"
)

// Env hands scenario phases their system handles. Vars carries
// addresses and values between phases (it survives the simulated
// reboot, standing in for what the application would rediscover from
// the pool root).
type Env struct {
	Dev    *pmem.Device
	Client *core.Client
	Pool   *core.Pool
	Vars   map[string]uint64
}

// Addr is a convenience accessor for stashed addresses.
func (e *Env) Addr(name string) pmem.Addr { return pmem.Addr(e.Vars[name]) }

// Scenario is one crash-consistency property.
type Scenario struct {
	Name string
	// Setup builds initial state (runs crash-free).
	Setup func(e *Env) error
	// Mutate runs the transactions under crash injection.
	Mutate func(e *Env) error
	// Check validates the invariant after recovery. It must accept
	// both the pre-Mutate and post-Mutate states (and for multi-tx
	// mutations, any prefix of committed transactions).
	Check func(e *Env) error
	// Seeds is how many chaos seeds each crash offset runs under: the
	// seed decides which unflushed lines survive the crash, so one seed
	// samples one of the 2^n outcomes of an offset. 0 means 1.
	Seeds int
	// DropVolatile adds, per offset, the run in which no unflushed line
	// survives.
	DropVolatile bool
}

// Result summarizes a sweep.
type Result struct {
	Scenario   string
	Probes     int // crash points exercised
	Completed  int // runs where Mutate finished before the crash point
	Violations []string
}

// Sweep runs the scenario across crash offsets [1, maxOffset) with the
// given stride. It stops early once Mutate completes without crashing
// (later offsets cannot crash either).
func Sweep(s Scenario, maxOffset, stride int64) (Result, error) {
	res := Result{Scenario: s.Name}
	seeds := max(s.Seeds, 1)
	runs := seeds
	if s.DropVolatile {
		runs++ // the last run of an offset is the dropping one
	}
	for off := int64(1); off < maxOffset; off += stride {
		anyCrashed := false
		for i := 0; i < runs; i++ {
			// Seed 0 of an offset is the offset, as before there were more.
			crashed, err := runOnce(s, off, off+int64(i)*maxOffset, i == seeds, &res)
			if err != nil {
				return res, fmt.Errorf("chaos %s @%d seed %d: %w", s.Name, off, i, err)
			}
			res.Probes++
			anyCrashed = anyCrashed || crashed
		}
		if !anyCrashed {
			res.Completed++
			break
		}
	}
	return res, nil
}

func runOnce(s Scenario, off, seed int64, drop bool, res *Result) (crashed bool, err error) {
	dev := pmem.NewChaos(seed)
	d, err := daemon.New(dev)
	if err != nil {
		return false, fmt.Errorf("boot: %w", err)
	}
	c := core.ConnectLocal(d)
	env := &Env{Dev: dev, Client: c, Vars: make(map[string]uint64)}
	pool, err := c.CreatePool("chaos", 0)
	if err != nil {
		return false, fmt.Errorf("pool: %w", err)
	}
	env.Pool = pool
	if err := s.Setup(env); err != nil {
		return false, fmt.Errorf("setup: %w", err)
	}

	crashesBefore := dev.Stats().Crashes
	if drop {
		dev.CrashAtEventDropping(dev.Events() + off)
	} else {
		dev.CrashAtEvent(dev.Events() + off)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if !pmem.IsCrash(r) {
					panic(r)
				}
				crashed = true
			}
		}()
		err = s.Mutate(env)
	}()
	c.Close()
	if !crashed && dev.Stats().Crashes > crashesBefore {
		// The crash point fired inside a daemon goroutine; the client
		// observed it as a dead connection rather than a panic.
		crashed = true
	}
	if !crashed && err != nil {
		return false, fmt.Errorf("mutate: %w", err)
	}
	if !crashed {
		dev.CrashAtEvent(0) // disarm
		// Still power-fail after completion.
		if drop {
			dev.DropVolatile()
		} else {
			dev.CrashNow()
		}
	}

	// Reboot: recovery happens inside daemon.New, before any client.
	d2, err := daemon.New(dev)
	if err != nil {
		return crashed, fmt.Errorf("reboot: %w", err)
	}
	c2 := core.ConnectLocal(d2)
	defer c2.Close()
	pool2, err := c2.OpenPool("chaos")
	if err != nil {
		return crashed, fmt.Errorf("reopen: %w", err)
	}
	env2 := &Env{Dev: dev, Client: c2, Pool: pool2, Vars: env.Vars}
	if err := s.Check(env2); err != nil {
		res.Violations = append(res.Violations,
			fmt.Sprintf("offset %d seed %d drop=%v (crashed=%v): %v", off, seed, drop, crashed, err))
	}
	return crashed, nil
}

// --- canonical scenarios ---

// BankTransfer: N accounts, transfers between random pairs inside
// transactions; the total balance is invariant under any crash.
func BankTransfer(accounts int, transfers int) Scenario {
	const initial = 1000
	return Scenario{
		Name: "bank-transfer",
		Setup: func(e *Env) error {
			ti, err := e.Client.RegisterType("chaos.account", 8, nil)
			if err != nil {
				return err
			}
			base, err := e.Pool.CreateRoot(ti.ID, uint32(accounts*8))
			if err != nil {
				return err
			}
			for i := 0; i < accounts; i++ {
				e.Dev.StoreU64(base+pmem.Addr(i*8), initial)
			}
			e.Dev.Persist(base, accounts*8)
			e.Vars["base"] = uint64(base)
			return nil
		},
		Mutate: func(e *Env) error {
			base := e.Addr("base")
			for i := 0; i < transfers; i++ {
				from := base + pmem.Addr((i%accounts)*8)
				to := base + pmem.Addr(((i*7+3)%accounts)*8)
				if from == to {
					continue
				}
				if err := e.Client.Run(e.Pool, func(tx *core.Tx) error {
					amt := uint64(i%97 + 1)
					fv := e.Dev.LoadU64(from)
					tv := e.Dev.LoadU64(to)
					if fv < amt {
						return nil
					}
					if err := tx.SetU64(from, fv-amt); err != nil {
						return err
					}
					return tx.SetU64(to, tv+amt)
				}); err != nil {
					return err
				}
			}
			return nil
		},
		Check: func(e *Env) error {
			base := e.Addr("base")
			var total uint64
			for i := 0; i < accounts; i++ {
				total += e.Dev.LoadU64(base + pmem.Addr(i*8))
			}
			if total != uint64(accounts)*initial {
				return fmt.Errorf("total = %d, want %d", total, accounts*initial)
			}
			return nil
		},
	}
}

// ListAppend: appends link nodes and bump a persistent counter in the
// same transaction; after recovery the chain length must equal the
// counter — no half-linked nodes.
func ListAppend(appends int) Scenario {
	return Scenario{
		Name: "list-append",
		Setup: func(e *Env) error {
			ti, err := e.Client.RegisterType("chaos.listroot", 24, nil)
			if err != nil {
				return err
			}
			if _, err := e.Client.RegisterType("chaos.node", 16, nil); err != nil {
				return err
			}
			root, err := e.Pool.CreateRoot(ti.ID, 24) // head, tail, count
			if err != nil {
				return err
			}
			e.Vars["root"] = uint64(root)
			return nil
		},
		Mutate: func(e *Env) error {
			root := e.Addr("root")
			nodeTI, _ := e.Client.Types().Lookup(typeID("chaos.node"))
			for i := 0; i < appends; i++ {
				if err := e.Client.Run(e.Pool, func(tx *core.Tx) error {
					n, err := tx.Alloc(nodeTI.ID, 16)
					if err != nil {
						return err
					}
					e.Dev.StoreU64(n, uint64(i+1))
					e.Dev.StoreU64(n+8, 0)
					tail := pmem.Addr(e.Dev.LoadU64(root + 8))
					if tail == 0 {
						if err := tx.SetU64(root, uint64(n)); err != nil {
							return err
						}
					} else if err := tx.SetU64(tail+8, uint64(n)); err != nil {
						return err
					}
					if err := tx.SetU64(root+8, uint64(n)); err != nil {
						return err
					}
					return tx.SetU64(root+16, e.Dev.LoadU64(root+16)+1)
				}); err != nil {
					return err
				}
			}
			return nil
		},
		Check: func(e *Env) error {
			root := e.Addr("root")
			count := e.Dev.LoadU64(root + 16)
			var walked uint64
			var last pmem.Addr
			for p := pmem.Addr(e.Dev.LoadU64(root)); p != 0; p = pmem.Addr(e.Dev.LoadU64(p + 8)) {
				walked++
				last = p
				if walked > uint64(1<<20) {
					return fmt.Errorf("cycle in recovered list")
				}
			}
			if walked != count {
				return fmt.Errorf("chain length %d != counter %d", walked, count)
			}
			if tail := pmem.Addr(e.Dev.LoadU64(root + 8)); tail != last {
				return fmt.Errorf("tail pointer %#x != last node %#x", uint64(tail), uint64(last))
			}
			return nil
		},
	}
}

// TwinCounters: two counters updated in one hybrid transaction (one
// undo-logged, one redo-logged) must never diverge by more than the
// in-flight transaction.
func TwinCounters(increments int) Scenario {
	return Scenario{
		Name: "twin-counters",
		Setup: func(e *Env) error {
			ti, err := e.Client.RegisterType("chaos.counters", 16, nil)
			if err != nil {
				return err
			}
			root, err := e.Pool.CreateRoot(ti.ID, 16)
			if err != nil {
				return err
			}
			e.Vars["root"] = uint64(root)
			return nil
		},
		Mutate: func(e *Env) error {
			root := e.Addr("root")
			for i := 0; i < increments; i++ {
				if err := e.Client.Run(e.Pool, func(tx *core.Tx) error {
					a := e.Dev.LoadU64(root)
					if err := tx.SetU64(root, a+1); err != nil {
						return err
					}
					return tx.RedoSetU64(root+8, a+1)
				}); err != nil {
					return err
				}
			}
			return nil
		},
		Check: func(e *Env) error {
			root := e.Addr("root")
			a := e.Dev.LoadU64(root)
			b := e.Dev.LoadU64(root + 8)
			if a != b {
				return fmt.Errorf("counters diverged: undo-side=%d redo-side=%d", a, b)
			}
			return nil
		},
	}
}

func typeID(name string) ptypes.TypeID { return ptypes.IDOf(name) }
