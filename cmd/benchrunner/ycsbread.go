package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"puddles/internal/baselines/puddleslib"
	"puddles/internal/kvstore"
	"puddles/internal/ycsb"
)

// ycsbread: the read-heavy sweep for the seqlock read path. YCSB B
// (95/5) and C (read-only) run at 1..16 workers over the same loaded
// store shape as ycsbmt. The JSON artifact (-ycsbreadjson, default
// BENCH_6.json) records throughput, speedup-vs-1-worker, and the
// read-path counters, so CI and later PRs can diff the scaling curve
// and check that optimistic reads almost never fall back to the latch.

type ycsbreadPoint struct {
	Workload  string  `json:"workload"`
	Workers   int     `json:"workers"`
	Ops       uint64  `json:"ops"`
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Speedup   float64 `json:"speedup_vs_1_worker"`
	Attempts  uint64  `json:"optimistic_attempts"`
	Retries   uint64  `json:"optimistic_retries"`
	Fallbacks uint64  `json:"latch_fallbacks"`
}

type ycsbreadReport struct {
	Benchmark    string          `json:"benchmark"`
	Records      uint64          `json:"records"`
	FenceLatency string          `json:"fence_latency"`
	LatchStripes int             `json:"latch_stripes"`
	Results      []ycsbreadPoint `json:"results"`
}

func runYCSBRead() error {
	const (
		records      = 8192
		stripes      = 512
		buckets      = 1 << 13
		valueSize    = 100
		fenceLatency = 6 * time.Microsecond
	)
	workerSweep := []int{1, 2, 4, 8, 16}
	opsAt1 := scaled(400000)
	report := ycsbreadReport{
		Benchmark:    "ycsb_read_path",
		Records:      records,
		FenceLatency: fenceLatency.String(),
		LatchStripes: stripes,
	}
	header := []string{"workload", "workers", "ops", "time", "ops/s", "speedup", "retries", "fallbacks"}
	var (
		rows  [][]string
		stats []kvstore.ReadStats
		s     *kvstore.Store
		lib   *puddleslib.Lib
	)
	points, err := ycsb.RunReadSweep(func() (ycsb.KV, func(), error) {
		var err error
		lib, err = puddleslib.New()
		if err != nil {
			return nil, nil, err
		}
		s, err = kvstore.New(lib, kvstore.Options{
			Buckets: buckets, ValueSize: valueSize, LatchStripes: stripes,
		})
		if err != nil {
			lib.Close()
			return nil, nil, err
		}
		value := make([]byte, valueSize)
		for _, k := range ycsb.LoadKeys(records) {
			if err := s.Put(k, value); err != nil {
				lib.Close()
				return nil, nil, err
			}
		}
		lib.Device().SetFenceLatency(fenceLatency)
		return s, func() {
			stats = append(stats, s.ReadStats())
			lib.Close()
		}, nil
	}, ycsb.ReadSweepOptions{
		Workloads:       []string{"B", "C"},
		Workers:         workerSweep,
		Records:         records,
		OpsPerWorkerAt1: opsAt1,
		ValueSize:       valueSize,
		Seed:            42,
	})
	if err != nil {
		return err
	}
	var base float64
	for i, p := range points {
		ops := p.Result.OpsPerSec()
		if p.Workers == workerSweep[0] {
			base = ops
		}
		speedup := 0.0
		if base > 0 {
			speedup = ops / base
		}
		rs := stats[i]
		report.Results = append(report.Results, ycsbreadPoint{
			Workload: p.Workload, Workers: p.Workers,
			Ops: p.Result.Ops, Seconds: p.Result.Duration.Seconds(),
			OpsPerSec: ops, Speedup: speedup,
			Attempts: rs.Attempts, Retries: rs.Retries, Fallbacks: rs.Fallbacks,
		})
		rows = append(rows, []string{
			p.Workload, fmt.Sprint(p.Workers), fmt.Sprint(p.Result.Ops),
			p.Result.Duration.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", ops), fmt.Sprintf("%.2fx", speedup),
			fmt.Sprint(rs.Retries), fmt.Sprint(rs.Fallbacks),
		})
	}
	table(header, rows)
	blob, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*ycsbreadJSON, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *ycsbreadJSON)
	return nil
}
