package chaos

import (
	"fmt"

	"puddles/internal/core"
	"puddles/internal/plog"
	"puddles/internal/pmem"
)

// protoTx is one transaction of a CommitProtocol scenario: the slots it
// undo-logs and overwrites and the slots it redo-logs. The i-th
// transaction (from 1) writes the value i<<32|slot.
type protoTx struct {
	undo, redo []int
}

// protoSlot is a location a protoTx writes. A transaction logs all of
// it and stores its value at the first, middle and last word, so a
// large slot that came back half old and half new shows.
type protoSlot struct {
	addr pmem.Addr
	size int
}

func (s protoSlot) words() [3]pmem.Addr {
	return [3]pmem.Addr{s.addr, s.addr + pmem.Addr(s.size/2)&^7, s.addr + pmem.Addr(s.size-8)}
}

// The pool root holds protoSmallSlots one-word slots a line apart, a
// spare word the priming transaction and the log check use, and from
// protoWideBase on the wide slots of the chain scenario.
const (
	protoSmallSlots = 8
	protoSpare      = protoSmallSlots * pmem.LineSize
	protoWideBase   = 1024
	protoWideSize   = 2048
	protoWideSlots  = 3
	protoRootSize   = protoWideBase + protoWideSlots*protoWideSize
	// protoSmallLog is the head-segment capacity the chain scenario
	// re-formats its log to: one wide undo entry fits, the second
	// chains a new segment, the third lands in it.
	protoSmallLog = 4096
)

// CommitProtocol is the scenario set that walks the commit protocol of
// core.Tx and plog.Reset through every one of its persist events. Each
// scenario is swept at stride 1 under eight chaos seeds and once with
// every unflushed line lost, and each starts on a log that a previous
// transaction used and reset (the at-rest state the protocol relies
// on, rather than a freshly formatted log):
//
//	undo-1      one undo range: append, stage 1, reset
//	undo-3      three undo ranges on three lines
//	hybrid-undo an undo+redo transaction (range switch, stage 2, reset
//	            back to the undo window), then an undo-only transaction
//	            on the same log
//	chain-undo  three wide ranges that outgrow the log's head segment
//	            and chain a second one, then a small transaction on that
//	            two-segment log
//
// The oracle is the same for all four: after recovery the data is
// exactly the state before or after the transaction that was in
// flight, with every acknowledged transaction in it, and the log the
// transactions ran on is at rest and takes another entry.
func CommitProtocol() []Scenario {
	return []Scenario{
		commitProtocol("undo-1", false, protoTx{undo: []int{0}}),
		commitProtocol("undo-3", false, protoTx{undo: []int{0, 1, 2}}),
		commitProtocol("hybrid-undo", false,
			protoTx{undo: []int{0, 1}, redo: []int{2, 3}},
			protoTx{undo: []int{1, 4}}),
		commitProtocol("chain-undo", true,
			protoTx{undo: []int{protoSmallSlots, protoSmallSlots + 1, protoSmallSlots + 2}},
			protoTx{undo: []int{0}}),
	}
}

// commitProtocol builds one scenario over the small slots followed by
// the wide ones. smallLog shrinks the head segment of the log the
// transactions run on, so that the wide slots chain a second segment
// without megabytes of chaos-device traffic per crash point.
func commitProtocol(name string, smallLog bool, txs ...protoTx) Scenario {
	slots := func(e *Env) []protoSlot {
		out := make([]protoSlot, 0, protoSmallSlots+protoWideSlots)
		for i := 0; i < protoSmallSlots; i++ {
			out = append(out, protoSlot{addr: e.Addr("root") + pmem.Addr(i*pmem.LineSize), size: 8})
		}
		for i := 0; i < protoWideSlots; i++ {
			out = append(out, protoSlot{addr: e.Addr("root") + protoWideBase + pmem.Addr(i*protoWideSize), size: protoWideSize})
		}
		return out
	}
	// model returns the slot values after the first n transactions.
	model := func(n int) []uint64 {
		state := make([]uint64, protoSmallSlots+protoWideSlots)
		for i, tx := range txs[:n] {
			for _, s := range append(append([]int(nil), tx.undo...), tx.redo...) {
				state[s] = uint64(i+1)<<32 | uint64(s)
			}
		}
		return state
	}
	run := func(e *Env, sl []protoSlot, i int, tx protoTx) error {
		return e.Client.Run(e.Pool, func(t *core.Tx) error {
			for _, s := range tx.undo {
				if err := t.Add(sl[s].addr, sl[s].size); err != nil {
					return err
				}
				for _, w := range sl[s].words() {
					e.Dev.StoreU64(w, uint64(i+1)<<32|uint64(s))
				}
			}
			for _, s := range tx.redo {
				if err := t.RedoSetU64(sl[s].addr, uint64(i+1)<<32|uint64(s)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return Scenario{
		Name:         "commit-protocol/" + name,
		Seeds:        8,
		DropVolatile: true,
		Setup: func(e *Env) error {
			ti, err := e.Client.RegisterType("chaos.protoroot", protoRootSize, nil)
			if err != nil {
				return err
			}
			root, err := e.Pool.CreateRoot(ti.ID, protoRootSize)
			if err != nil {
				return err
			}
			e.Vars["root"] = uint64(root)
			e.Vars["acked"] = 0
			// One transaction on a word of no interest, so that Mutate
			// starts on a used, reset, parked log.
			prime := func() error {
				return e.Client.Run(e.Pool, func(t *core.Tx) error { return t.SetU64(root+protoSpare, 1) })
			}
			if err := prime(); err != nil {
				return err
			}
			heads := e.Client.CachedLogHeads()
			if len(heads) != 1 {
				return fmt.Errorf("%d parked logs after the priming transaction, want 1", len(heads))
			}
			e.Vars["log"] = uint64(heads[0])
			if !smallLog {
				return nil
			}
			// The log is the application's to format: do it again, in
			// place, over the first few KiB of its puddle. The client's
			// handle stays good (Append reads the capacity from media).
			small := pmem.Range{Start: heads[0], End: heads[0] + protoSmallLog}
			if _, err := plog.FormatLog(e.Dev, small); err != nil {
				return err
			}
			return prime()
		},
		Mutate: func(e *Env) error {
			sl := slots(e)
			for i, tx := range txs {
				if err := run(e, sl, i, tx); err != nil {
					return err
				}
				e.Vars["acked"] = uint64(i + 1)
			}
			return nil
		},
		Check: func(e *Env) error {
			sl := slots(e)
			acked := int(e.Vars["acked"])
			matches := func(want []uint64) bool {
				for s, slot := range sl {
					for _, w := range slot.words() {
						if e.Dev.LoadU64(w) != want[s] {
							return false
						}
					}
				}
				return true
			}
			if !matches(model(acked)) && !(acked < len(txs) && matches(model(acked+1))) {
				got := make([][3]uint64, len(sl))
				for s, slot := range sl {
					for k, w := range slot.words() {
						got[s][k] = e.Dev.LoadU64(w)
					}
				}
				return fmt.Errorf("%d transactions acknowledged; state %#x is neither the state after %d (%#x) nor after %d",
					acked, got, acked, model(acked), acked+1)
			}
			// The log the transactions ran on: recovered, at rest, usable.
			l, err := plog.OpenLog(e.Dev, e.Addr("log"), nil)
			if err != nil {
				return fmt.Errorf("log after recovery: %w", err)
			}
			if !l.AtRest() {
				return fmt.Errorf("recovery left the log off rest")
			}
			if smallLog && acked > 0 && l.Segments() < 2 {
				return fmt.Errorf("the wide transaction committed without chaining a segment")
			}
			spare := e.Addr("root") + protoSpare
			before := e.Dev.LoadU64(spare)
			var img [8]byte
			e.Dev.Load(spare, img[:])
			if err := l.Append(plog.Entry{Addr: spare, Seq: plog.SeqUndo, Order: plog.OrderBackward, Data: img[:]}, nil); err != nil {
				return fmt.Errorf("append to the recovered log: %w", err)
			}
			e.Dev.StoreU64(spare, ^before)
			if n := l.Replay(true, nil); n != 1 || e.Dev.LoadU64(spare) != before || l.Pending() {
				return fmt.Errorf("recovered log did not roll one entry back (applied %d)", n)
			}
			return nil
		},
	}
}
