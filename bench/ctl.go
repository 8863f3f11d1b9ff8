package main

import (
	"fmt"
	"time"

	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/puddle"
)

const (
	ctlPoolName = "churn"
	// ctlPuddles is the size of the pool every short session opens.
	ctlPuddles = 16
	// ctlSessions is how many short sessions one set-up cycles: dial,
	// Hello/Welcome, RegisterType, OpenPool, Nop, Close. It is set-up
	// because that is what a control-plane user pays before the first
	// request: handshake and open cost show in setup_s.
	ctlSessions = 500
	ctlGrant    = puddle.MinSize // 8 KiB
	// ctlTriples is (grant, free, nop) triples per round at --seconds 10:
	// 5 × 60 000 requests at ≈ 30 k req/s on the reference box is about
	// 10 s. A round journals 40 000 requests, so it always holds a
	// checkpoint cycle (one comes every ≈ 22 000), and every recovery
	// faces the same journal.
	ctlTriples = 20000
)

// ctlWorkload is the control plane alone: ONE closed-loop client over
// the UNIX socket issuing grant / free / nop. One client, not two: two
// closed-loop control clients on two cores swing between rounds by a
// factor the metric cannot carry.
type ctlWorkload struct {
	box
	sessions int
	triples  int // per round
	opIdx    uint64
}

func newCtl(e *env) workload {
	return &ctlWorkload{box: box{e: e}, sessions: e.scaled(ctlSessions, 5), triples: e.ops(ctlTriples, 50)}
}

func (w *ctlWorkload) setup() error {
	if err := w.open(pmem.New(), "unix", ctlPoolName); err != nil {
		return err
	}
	for i := 1; i < ctlPuddles; i++ {
		if _, err := w.cl.RoundTrip(&proto.Request{Op: proto.OpGetNewPuddle, Pool: w.pool.UUID, Size: ctlGrant}); err != nil {
			return fmt.Errorf("growing pool: %w", err)
		}
	}
	if err := w.addScratch(); err != nil {
		return err
	}
	for i := 0; i < w.sessions; i++ {
		if err := w.session(i); err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
	}
	w.e.attempted.Add(uint64(w.sessions))
	return nil
}

// session is one short-lived tenant.
func (w *ctlWorkload) session(i int) error {
	cl, err := w.m.dial()
	if err != nil {
		return err
	}
	defer cl.Close()
	if _, err := cl.RegisterType(fmt.Sprintf("churn.t%d", i%8), 16, nil); err != nil {
		return err
	}
	pool, err := cl.OpenPool(ctlPoolName)
	if err != nil {
		return err
	}
	if n := len(pool.Puddles()); n != ctlPuddles {
		return fmt.Errorf("opened pool has %d puddles, want %d", n, ctlPuddles)
	}
	return cl.Nop()
}

// pooled: a round holds one or two checkpoint-stream stalls and a
// per-round rate would swing by which.
func (w *ctlWorkload) pooled() bool { return true }

func (w *ctlWorkload) rounds() int { return timedRounds }

// round issues w.triples × (grant 8 KiB, free, nop), timing every
// request: read = Nop, write = the two journaled requests.
func (w *ctlWorkload) round(i int) (roundStat, error) {
	sp := w.e.tr.begin(0, fmt.Sprintf("round-%d", i))
	defer w.e.tr.end(sp)
	var rs roundStat
	grant := &proto.Request{Op: proto.OpGetNewPuddle, Pool: w.pool.UUID, Size: ctlGrant}
	start := time.Now()
	for t0, n := start, 0; n < w.triples; n++ {
		resp, err := w.cl.RoundTrip(grant)
		t1 := time.Now()
		if err != nil {
			return rs, fmt.Errorf("grant: %w", err)
		}
		_, err = w.cl.RoundTrip(&proto.Request{Op: proto.OpFreePuddle, UUID: resp.UUID})
		t2 := time.Now()
		if err != nil {
			return rs, fmt.Errorf("free: %w", err)
		}
		err = w.cl.Nop()
		t3 := time.Now()
		if err != nil {
			return rs, fmt.Errorf("nop: %w", err)
		}
		rs.writes = append(rs.writes, int64(t1.Sub(t0)), int64(t2.Sub(t1)))
		rs.reads = append(rs.reads, int64(t3.Sub(t2)))
		w.e.tr.op(sp, "OpGetNewPuddle", w.opIdx, t0, t1)
		w.e.tr.op(sp, "OpFreePuddle", w.opIdx, t1, t2)
		w.e.tr.op(sp, "OpNop", w.opIdx, t2, t3)
		w.opIdx++
		rs.ops += 3
		t0 = t3
	}
	rs.elapsed = time.Since(start)
	w.e.attempted.Add(rs.ops)
	return rs, nil
}

// verify: every grant was freed again, so the daemon must hold exactly
// the pool it was loaded with.
func (w *ctlWorkload) verify() error {
	resp, err := w.cl.RoundTrip(&proto.Request{Op: proto.OpOpenPool, Name: ctlPoolName})
	if err != nil {
		return err
	}
	if n := len(resp.Puddles); n != ctlPuddles {
		return fmt.Errorf("pool %s has %d puddles after churn, want %d", ctlPoolName, n, ctlPuddles)
	}
	w.e.attempted.Add(1)
	return nil
}

func (w *ctlWorkload) crashRecover() (time.Duration, error) { return w.crash() }
func (w *ctlWorkload) finish() error                        { return w.checkImage() }

// userBytes is what the client asked for: the root puddle and the grown
// members.
func (w *ctlWorkload) userBytes() uint64 { return puddle.DefaultSize + (ctlPuddles-1)*ctlGrant }
