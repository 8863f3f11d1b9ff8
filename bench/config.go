package main

import (
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// The pinned configuration. These are constants, not flags: a number
// from this harness is comparable to the number before it only if
// nothing here moved between the two runs. They are stamped into every
// results file (see pinned).
const (
	// fenceLatency is BENCH_9's Optane-class drain. At 200 ns the YCSB A
	// stream spends about two thirds of its wall time in fence stalls and
	// one third in host CPU, so both a fence-cutting and a CPU-cutting
	// change show; at 1 µs CPU work shrinks to under a fifth and at 0
	// fences are free. Armed after set-up.
	fenceLatency = 200 * time.Nanosecond

	// maxProcs is GOMAXPROCS; load comes from at most maxWorkers
	// goroutines/connections of this one process (nproc = 2 on the
	// reference box).
	maxProcs   = 2
	maxWorkers = 2

	// timedRounds is how many rounds a timed phase has; every reported
	// timing is the median of the per-round values. A round is a fixed
	// number of operations (env.ops; the counts sit beside each workload).
	timedRounds = 5

	// An untraced run sets up (boot, dial, create, load) at least
	// setupReps times, and keeps going while the set-ups together took
	// less than setupBudget, up to maxSetupReps; setup_s is the median.
	// The last instance is kept and measured.
	setupReps    = 3
	maxSetupReps = 15
	setupBudget  = time.Second

	// sampleEvery: the data-path workloads time one op in sampleEvery
	// (by op index) to keep timer cost under 2 %; the control-plane,
	// crash and relocation workloads time every op.
	sampleEvery = 32

	// defaultSeconds is run_seconds in BENCHMARK.json: the --seconds at
	// which the rounds' op counts are pinned, and about how long the
	// rounds of one run take together on the reference box.
	defaultSeconds = 10
)

// pinned describes the configuration and the build for a results file.
func pinned() map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"fence_latency_ns": fenceLatency.Nanoseconds(),
		"gomaxprocs":       maxProcs,
		"max_workers":      maxWorkers,
		"timed_rounds":     timedRounds,
		"round_ops_at_10s": map[string]int{
			"kv-update.per_worker": kvUpdateOps, "kv-read.per_worker": kvReadOps, "shadow-update.per_worker": shadowOps,
			"ctl-churn.triples": ctlTriples, "crash-recover.pairs_per_app": crashPairs, "crash-recover.inserts_per_app": crashInserts,
			"relocate.ship_migrate_pairs": relocPairs, "relocate.writer_txs_per_migration": migWriterTxs,
		},
		"setup_reps":   setupReps,
		"sample_every": sampleEvery,
		"gogc":         "default",
		"options":      "daemon and client defaults",
		"go":           runtime.Version(),
		"nproc":        runtime.NumCPU(),
		"commit":       commit,
	}
}
