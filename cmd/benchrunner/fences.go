package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"puddles/internal/baselines/puddleslib"
	"puddles/internal/daemon"
	"puddles/internal/kvstore"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/puddle"
	"puddles/internal/structures"
)

// fences: the fence-minimal commit evaluation (emits -fencesjson,
// default BENCH_9.json), two claims in one artifact:
//
//  1. Commit-discipline sweep: the same keyed-update workload through
//     the undo-log kvstore (per-append log fence + multi-stage commit)
//     and through MOD-style shadow maps (a fresh leaf, one fence, one
//     trie-word publish), 1–16 workers, with SetFenceLatency
//     modeling an Optane-class drain so the fence count shows up in
//     wall-clock throughput, not just a counter.
//  2. O(1) checkpoint capture: the quiesce pause of the copy-on-write
//     registry checkpoint must stay flat as the registry grows 10×
//     (200 → 2000 puddles) — the pause swaps a pending-delta list, it
//     no longer encodes or copies the registry.

const fenceLatency = 200 * time.Nanosecond // Optane-class eADR-less drain

type fencePoint struct {
	Discipline  string  `json:"discipline"` // "undo" | "shadow"
	Workers     int     `json:"workers"`
	Ops         int     `json:"ops"`
	Fences      uint64  `json:"fences"`
	FencesPerOp float64 `json:"fences_per_op"`
	KOpsPerSec  float64 `json:"kops_per_sec"`
}

type fenceCkptPoint struct {
	Puddles     int     `json:"puddles"`
	Compactions int     `json:"compactions"`
	PauseP50Us  float64 `json:"quiesce_p50_us"`
	PauseMaxUs  float64 `json:"quiesce_max_us"`
}

type fenceReport struct {
	Benchmark      string           `json:"benchmark"`
	FenceLatencyNs int64            `json:"fence_latency_ns"`
	Sweep          []fencePoint     `json:"commit_discipline_sweep"`
	Checkpoint     []fenceCkptPoint `json:"checkpoint_quiesce"`
}

func runFences() error {
	ops := scaled(200000)
	if ops < 1024 {
		ops = 1024
	}
	report := fenceReport{
		Benchmark:      "fence_minimal_commit",
		FenceLatencyNs: fenceLatency.Nanoseconds(),
	}

	header := []string{"discipline", "workers", "ops", "fences/op", "kops/s"}
	var rows [][]string
	for _, workers := range []int{1, 2, 4, 8, 16} {
		for _, disc := range []string{"undo", "shadow"} {
			pt, err := fencePoint1(disc, workers, ops)
			if err != nil {
				return fmt.Errorf("%s/%d workers: %w", disc, workers, err)
			}
			report.Sweep = append(report.Sweep, pt)
			rows = append(rows, []string{
				pt.Discipline, fmt.Sprint(pt.Workers), fmt.Sprint(pt.Ops),
				fmt.Sprintf("%.2f", pt.FencesPerOp),
				fmt.Sprintf("%.1f", pt.KOpsPerSec),
			})
		}
	}
	table(header, rows)

	for _, size := range []int{200, 2000} {
		pt, err := fenceCkpt1(size)
		if err != nil {
			return fmt.Errorf("ckpt/%d puddles: %w", size, err)
		}
		report.Checkpoint = append(report.Checkpoint, pt)
		fmt.Printf("quiesce @%d puddles: p50 %.1fµs, max %.1fµs\n",
			pt.Puddles, pt.PauseP50Us, pt.PauseMaxUs)
	}

	blob, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*fencesJSON, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *fencesJSON)
	return nil
}

// fencePoint1 runs ops keyed updates split across workers under one
// commit discipline and reports the device's fence count and the
// wall-clock throughput with the fence drain switched on.
func fencePoint1(disc string, workers, ops int) (fencePoint, error) {
	pl, err := puddleslib.New()
	if err != nil {
		return fencePoint{}, err
	}
	dev := pl.Device()

	perWorker := ops / workers
	run := func(worker func(w, n int) error) (uint64, time.Duration, error) {
		dev.SetFenceLatency(fenceLatency)
		defer dev.SetFenceLatency(0)
		base := dev.Stats().Fences
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = worker(w, perWorker)
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, e := range errs {
			if e != nil {
				return 0, 0, e
			}
		}
		return dev.Stats().Fences - base, elapsed, nil
	}

	var fences uint64
	var elapsed time.Duration
	switch disc {
	case "undo":
		kv, err := kvstore.New(pl, kvstore.Options{
			Buckets: 1 << 12, ValueSize: 8, LatchStripes: 64,
		})
		if err != nil {
			return fencePoint{}, err
		}
		val := make([]byte, 8)
		fences, elapsed, err = run(func(w, n int) error {
			for i := 0; i < n; i++ {
				if err := kv.Put(uint64(w)<<32|uint64(i%4096), val); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fencePoint{}, err
		}
	case "shadow":
		// One shadow map per worker: the MOD structures are
		// single-writer by design, so a striped deployment is their
		// natural concurrent shape (stripes conflict on nothing).
		maps := make([]*structures.ShadowMap, workers)
		for w := range maps {
			if maps[w], err = structures.NewShadowMap(pl.Client(), pl.Pool()); err != nil {
				return fencePoint{}, err
			}
		}
		fences, elapsed, err = run(func(w, n int) error {
			m := maps[w]
			for i := 0; i < n; i++ {
				if err := m.Put(uint64(i%4096), uint64(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fencePoint{}, err
		}
	default:
		return fencePoint{}, fmt.Errorf("unknown discipline %q", disc)
	}

	total := perWorker * workers
	return fencePoint{
		Discipline:  disc,
		Workers:     workers,
		Ops:         total,
		Fences:      fences,
		FencesPerOp: float64(fences) / float64(total),
		KOpsPerSec:  float64(total) / elapsed.Seconds() / 1000,
	}, nil
}

// fenceCkpt1 measures the checkpoint quiesce pause against a registry
// of size puddles — the copy-on-write registry makes capture O(1), so
// the pause must not follow the registry size.
func fenceCkpt1(size int) (fenceCkptPoint, error) {
	dev := pmem.New()
	d, err := daemon.New(dev)
	if err != nil {
		return fenceCkptPoint{}, err
	}
	c := d.SelfConn()
	defer c.Close()
	var churnPool *proto.Response
	for built := 0; built < size; {
		resp, err := c.RoundTrip(&proto.Request{
			Op: proto.OpCreatePool, Name: fmt.Sprintf("reg-%d", built),
		})
		if err != nil {
			return fenceCkptPoint{}, err
		}
		churnPool = resp
		built++
		for i := 0; i < 63 && built < size; i++ {
			if _, err := c.RoundTrip(&proto.Request{
				Op: proto.OpGetNewPuddle, Pool: resp.Pool, Size: puddle.MinSize,
			}); err != nil {
				return fenceCkptPoint{}, err
			}
			built++
		}
	}
	if _, err := d.CompactNow(); err != nil {
		return fenceCkptPoint{}, err
	}
	const rounds = 20
	const churn = 8
	statsBefore := d.Stats()
	pauses := make([]time.Duration, 0, rounds)
	for r := 0; r < rounds; r++ {
		for i := 0; i < churn; i++ {
			resp, err := c.RoundTrip(&proto.Request{
				Op: proto.OpGetNewPuddle, Pool: churnPool.Pool, Size: puddle.MinSize,
			})
			if err != nil {
				return fenceCkptPoint{}, err
			}
			if _, err := c.RoundTrip(&proto.Request{Op: proto.OpFreePuddle, UUID: resp.UUID}); err != nil {
				return fenceCkptPoint{}, err
			}
		}
		pause, err := d.CompactNow()
		if err != nil {
			return fenceCkptPoint{}, err
		}
		pauses = append(pauses, pause)
	}
	stats := d.Stats()
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	return fenceCkptPoint{
		Puddles:     size,
		Compactions: int(stats.Checkpoints - statsBefore.Checkpoints),
		PauseP50Us:  float64(pauses[len(pauses)/2].Nanoseconds()) / 1000,
		PauseMaxUs:  float64(pauses[len(pauses)-1].Nanoseconds()) / 1000,
	}, nil
}
