// Package chaos is the crash-injection harness behind the paper's
// §5.1 correctness check ("we inject crashes into Puddles' runtime and
// run system-supported recovery ... and find that Puddles recover
// application data to a consistent and correct state every time").
//
// Sweep is the one crash driver. It runs a Scenario once per crash
// offset (and per chaos seed, and once with every unflushed line lost,
// when the scenario asks): Boot brings the system up, Setup builds
// state, the device is armed to fail at the k-th persistence event
// inside Mutate, the "machine" power-fails and boots again on the
// surviving bytes (recovery runs inside daemon.New), and Check judges
// what came back. A failed Check or reboot at any offset is a
// crash-consistency bug. The swept scenarios:
//
//	BankTransfer, ListAppend, TwinCounters  application invariants
//	CommitProtocol                          every persist event of a commit
//	AllocCacheChurn                         worker allocation caches
//	KVReadPath                              kvstore Puts under seqlock reads
//	ShadowChurn, ShadowMapDepth             shadow structures' commits
//	RegistryChurn, CompactionChurn          the daemon's journal, checkpoints
//	ShardedLogChurn                         a log space's AddLog/RemoveLog
//
// The other harnesses are not offset sweeps. CrashManyInFlight and
// FanoutEquivalence power-fail once, with transactions parked
// mid-flight; MigrationChurn crashes a migration phase × victim across
// two daemons; DaemonRestartChurn kills and restarts a daemon over
// real sockets, with no power failure.
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
	Dev     *pmem.Device
	Daemon  *daemon.Daemon
	Client  *core.Client
	Pool    *core.Pool
	Vars    map[string]uint64
	clients []*core.Client
}

// Addr is a convenience accessor for stashed addresses.
func (e *Env) Addr(name string) pmem.Addr { return pmem.Addr(e.Vars[name]) }

// newRoot registers the pointer-free type name of size bytes, creates
// the pool's root object of that type and stashes its address as
// Vars[v].
func (e *Env) newRoot(v, name string, size int) (pmem.Addr, error) {
	ti, err := e.Client.RegisterType(name, uint32(size), nil)
	if err != nil {
		return 0, err
	}
	root, err := e.Pool.CreateRoot(ti.ID, uint32(size))
	e.Vars[v] = uint64(root)
	return root, err
}

// Connect connects a client to Env.Daemon; Sweep closes it when the
// phase's run ends (after Mutate, or after Check).
func (e *Env) Connect() *core.Client {
	c := core.ConnectLocal(e.Daemon)
	e.clients = append(e.clients, c)
	return c
}

func (e *Env) closeClients() {
	for _, c := range e.clients {
		c.Close()
	}
	e.clients = nil
}

// Scenario is one crash-consistency property.
type Scenario struct {
	Name string
	// Boot brings the system up on Env.Dev: before Setup, and again,
	// with reboot set, after the power failure. nil boots a daemon,
	// connects Env.Client and creates (on reboot, opens) Env.Pool.
	Boot func(e *Env, reboot bool) error
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

// BootDaemon boots a daemon with opts (Env.Daemon) and connects
// nothing; the scenario's phases connect what they need.
func BootDaemon(opts ...daemon.Option) func(*Env, bool) error {
	return func(e *Env, _ bool) (err error) {
		e.Daemon, err = daemon.New(e.Dev, opts...)
		return err
	}
}

// BootDevice boots nothing: the scenario formats what it needs on
// Env.Dev in Setup, and its Check reopens it the way recovery would.
func BootDevice(*Env, bool) error { return nil }

func bootPool(e *Env, reboot bool) (err error) {
	if err := BootDaemon()(e, reboot); err != nil {
		return err
	}
	e.Client = e.Connect()
	if reboot {
		e.Pool, err = e.Client.OpenPool("chaos")
	} else {
		e.Pool, err = e.Client.CreatePool("chaos", 0)
	}
	return err
}

// Result summarizes a sweep.
type Result struct {
	Probes     int // crash points exercised
	Completed  int // runs where Mutate finished before the crash point
	Violations []string
}

// Sweep runs the scenario across crash offsets [1, maxOffset) with the
// given stride. It stops early once Mutate completes without crashing
// (later offsets cannot crash either).
func Sweep(s Scenario, maxOffset, stride int64) (Result, error) {
	var res Result
	if s.Boot == nil {
		s.Boot = bootPool
	}
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

// runOnce is the one arm → crash → power-fail → reboot → check step.
// A failed boot, Setup, or a Mutate that errs without crashing, is an
// error of the harness; a failed reboot or Check is a violation.
func runOnce(s Scenario, off, seed int64, drop bool, res *Result) (crashed bool, err error) {
	dev := pmem.NewChaos(seed)
	env := &Env{Dev: dev, Vars: make(map[string]uint64)}
	defer env.closeClients()
	if err := s.Boot(env, false); err != nil {
		return false, fmt.Errorf("boot: %w", err)
	}
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
	env.closeClients()
	// A crash point that fired inside a daemon goroutine reaches the
	// client as a dead connection rather than a panic.
	crashed = crashed || dev.Stats().Crashes > crashesBefore
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
	env2 := &Env{Dev: dev, Vars: env.Vars}
	defer env2.closeClients()
	if err = s.Boot(env2, true); err != nil {
		err = fmt.Errorf("reboot: %w", err)
	} else {
		err = s.Check(env2)
	}
	if err != nil {
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
			base, err := e.newRoot("base", "chaos.accounts", accounts*8)
			if err != nil {
				return err
			}
			for i := 0; i < accounts; i++ {
				e.Dev.StoreU64(base+pmem.Addr(i*8), initial)
			}
			e.Dev.Persist(base, accounts*8)
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
			if _, err := e.newRoot("root", "chaos.listroot", 24); err != nil { // head, tail, count
				return err
			}
			_, err := e.Client.RegisterType("chaos.node", 16, nil)
			return err
		},
		Mutate: func(e *Env) error {
			root := e.Addr("root")
			for i := 0; i < appends; i++ {
				if err := e.Client.Run(e.Pool, func(tx *core.Tx) error {
					n, err := tx.Alloc(ptypes.IDOf("chaos.node"), 16)
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
			_, err := e.newRoot("root", "chaos.counters", 16)
			return err
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
