package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"puddles/internal/daemon"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/puddle"
)

// ckpt: compaction pause vs registry size. A checkpoint captures only
// the records dirtied since the last one under the quiesce and streams
// the chunks with the request path running. This benchmark builds
// registries an order of magnitude apart, runs the same steady churn
// against both, forces compactions with daemon.CompactNow — which
// reports exactly the exclusive-opMu hold — and emits the pause
// distribution to -ckptjson (default BENCH_5.json): the pause should
// track only the churn between compactions, not the registry size.

type ckptPoint struct {
	Puddles     int     `json:"puddles"`
	Compactions int     `json:"compactions"`
	PauseP50Us  float64 `json:"pause_p50_us"`
	PauseP99Us  float64 `json:"pause_p99_us"`
	PauseMaxUs  float64 `json:"pause_max_us"`
	CkptBytes   uint64  `json:"checkpoint_bytes_total"`
	CkptChunks  uint64  `json:"checkpoint_chunks_total"`
}

type ckptReport struct {
	Benchmark     string      `json:"benchmark"`
	ChurnPerCycle int         `json:"churn_ops_per_compaction"`
	Rounds        int         `json:"compactions_per_point"`
	Results       []ckptPoint `json:"results"`
}

func runCkpt() error {
	small := scaled(20000)
	if small < 8 {
		small = 8
	}
	sizes := []int{small, 10 * small}
	const rounds = 20
	const churn = 16 // mutations between forced compactions
	report := ckptReport{
		Benchmark:     "checkpoint_pause",
		ChurnPerCycle: churn,
		Rounds:        rounds,
	}
	header := []string{"puddles", "compactions", "pause p50", "pause p99", "pause max"}
	var rows [][]string
	for _, size := range sizes {
		pt, err := ckptPoint1(size, rounds, churn)
		if err != nil {
			return fmt.Errorf("%d puddles: %w", size, err)
		}
		report.Results = append(report.Results, pt)
		rows = append(rows, []string{
			fmt.Sprint(pt.Puddles), fmt.Sprint(pt.Compactions),
			fmt.Sprintf("%.1fµs", pt.PauseP50Us),
			fmt.Sprintf("%.1fµs", pt.PauseP99Us),
			fmt.Sprintf("%.1fµs", pt.PauseMaxUs),
		})
	}
	table(header, rows)
	blob, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*ckptJSON, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *ckptJSON)
	return nil
}

func ckptPoint1(size, rounds, churn int) (ckptPoint, error) {
	d, err := daemon.New(pmem.New())
	if err != nil {
		return ckptPoint{}, err
	}
	c := d.SelfConn()
	defer c.Close()
	// Build the registry: size puddles spread over pools of 64.
	var churnPool *proto.Response
	for built := 0; built < size; {
		resp, err := c.RoundTrip(&proto.Request{
			Op: proto.OpCreatePool, Name: fmt.Sprintf("reg-%d", built),
		})
		if err != nil {
			return ckptPoint{}, err
		}
		churnPool = resp
		built++ // the root puddle
		for i := 0; i < 63 && built < size; i++ {
			if _, err := c.RoundTrip(&proto.Request{
				Op: proto.OpGetNewPuddle, Pool: resp.Pool, Size: puddle.MinSize,
			}); err != nil {
				return ckptPoint{}, err
			}
			built++
		}
	}
	// Settle the build into a checkpoint so the measured cycles see
	// steady-state churn, not the construction burst.
	if _, err := d.CompactNow(); err != nil {
		return ckptPoint{}, err
	}
	statsBefore := d.Stats()
	pauses := make([]time.Duration, 0, rounds)
	for r := 0; r < rounds; r++ {
		for i := 0; i < churn; i += 2 {
			resp, err := c.RoundTrip(&proto.Request{
				Op: proto.OpGetNewPuddle, Pool: churnPool.Pool, Size: puddle.MinSize,
			})
			if err != nil {
				return ckptPoint{}, err
			}
			if _, err := c.RoundTrip(&proto.Request{Op: proto.OpFreePuddle, UUID: resp.UUID}); err != nil {
				return ckptPoint{}, err
			}
		}
		pause, err := d.CompactNow()
		if err != nil {
			return ckptPoint{}, err
		}
		pauses = append(pauses, pause)
	}
	stats := d.Stats()
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(pauses)-1))
		return float64(pauses[i].Nanoseconds()) / 1000
	}
	return ckptPoint{
		Puddles:     size,
		Compactions: int(stats.Checkpoints - statsBefore.Checkpoints),
		PauseP50Us:  pct(0.50),
		PauseP99Us:  pct(0.99),
		PauseMaxUs:  pct(1.0),
		CkptBytes:   stats.CheckpointBytes,
		CkptChunks:  stats.CheckpointChunks,
	}, nil
}
