// Benchrunner regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate. Each subcommand prints
// the same rows/series the paper reports.
//
// Usage:
//
//	benchrunner [-scale N] <experiment>
//
// Experiments: table1 fig1 table3 daemon reloc crashcheck fig9 fig10
// fig11 fig12 fig14 ycsbmt daemonmt logshard ckpt ycsbread allocmt all
//
// -scale scales operation counts relative to the paper (default 0.01;
// 1.0 reproduces the paper's full sizes and takes correspondingly
// long).
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"
)

var (
	scale        = flag.Float64("scale", 0.01, "operation-count scale relative to the paper")
	threads      = flag.String("threads", "1,2,4,8", "thread counts for fig12 (paper sweeps to 40 on a 20-core box)")
	jsonOut      = flag.String("json", "BENCH_2.json", "artifact path for the ycsbmt scaling report")
	daemonJSON   = flag.String("daemonjson", "BENCH_3.json", "artifact path for the daemonmt scaling report")
	logshardJSON = flag.String("logshardjson", "BENCH_4.json", "artifact path for the logshard scaling report")
	ckptJSON     = flag.String("ckptjson", "BENCH_5.json", "artifact path for the checkpoint-pause report")
	ycsbreadJSON = flag.String("ycsbreadjson", "BENCH_6.json", "artifact path for the read-path sweep report")
	allocmtJSON  = flag.String("allocmtjson", "BENCH_7.json", "artifact path for the allocator cache scaling report")
	connmtJSON   = flag.String("connmtjson", "BENCH_8.json", "artifact path for the connection scaling report")
	connMax      = flag.Int("connmax", 4096, "largest connection count in the connmt sweep")
	fencesJSON   = flag.String("fencesjson", "BENCH_9.json", "artifact path for the commit-discipline fence report")
	migrateJSON  = flag.String("migratejson", "BENCH_10.json", "artifact path for the live-migration pause report")
)

type experiment struct {
	name string
	desc string
	run  func() error
}

func main() {
	flag.Parse()
	exps := []experiment{
		{"table1", "feature matrix (Table 1)", runTable1},
		{"fig1", "fat-pointer overhead microbenchmarks (Figure 1)", runFig1},
		{"table3", "API primitive latencies (Table 3)", runTable3},
		{"daemon", "daemon primitive latencies (§5.1)", runDaemon},
		{"reloc", "relocatability primitives (§5.1)", runReloc},
		{"crashcheck", "crash-injection correctness check (§5.1)", runCrashCheck},
		{"fig9", "linked list vs PMDK and Romulus (Figure 9)", runFig9},
		{"fig10", "order-8 B-tree vs PMDK and Romulus (Figure 10)", runFig10},
		{"fig11", "YCSB A-G across five libraries (Figure 11)", runFig11},
		{"fig12", "multithreaded scaling (Figure 12)", runFig12},
		{"fig14", "sensor-network aggregation (Figures 13/14)", runFig14},
		{"ycsbmt", "multi-worker YCSB transaction scaling (emits -json artifact)", runYCSBMT},
		{"daemonmt", "multi-client daemon metadata scaling (emits -daemonjson artifact)", runDaemonMT},
		{"logshard", "sharded log-space commit + single-app recovery scaling (emits -logshardjson artifact)", runLogShard},
		{"ckpt", "compaction pause vs registry size (emits -ckptjson artifact)", runCkpt},
		{"ycsbread", "read-heavy YCSB B/C on seqlock reads (emits -ycsbreadjson artifact)", runYCSBRead},
		{"allocmt", "alloc/free cache scaling + 32/64-worker YCSB A (emits -allocmtjson artifact)", runAllocMT},
		{"connmt", "64-4096 real-socket connection scaling + restart chaos (emits -connmtjson artifact)", runConnMT},
		{"connchaos", "daemon kill/restart churn under live TCP clients", runConnChaos},
		{"fences", "undo vs MOD-shadow commit fences, O(1) checkpoint capture, arena spill (emits -fencesjson artifact)", runFences},
		{"migrate", "live-migration quiesce pause vs pool size under a sustained writer (emits -migratejson artifact)", runMigrate},
	}
	want := flag.Arg(0)
	if want == "" {
		fmt.Fprintln(os.Stderr, "usage: benchrunner [-scale N] <experiment>")
		for _, e := range exps {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", e.name, e.desc)
		}
		fmt.Fprintln(os.Stderr, "  all         run everything")
		os.Exit(2)
	}
	for _, e := range exps {
		if e.name == want || want == "all" {
			fmt.Printf("== %s: %s (scale %.3g) ==\n", e.name, e.desc, *scale)
			start := time.Now()
			if err := e.run(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
				os.Exit(1)
			}
			fmt.Printf("-- %s done in %v --\n\n", e.name, time.Since(start).Round(time.Millisecond))
			if want != "all" {
				return
			}
		}
	}
	if want != "all" {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", want)
		os.Exit(2)
	}
}

// table writes an aligned table to stdout.
func table(header []string, rows [][]string) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for i, h := range header {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, h)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		for i, c := range r {
			if i > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
}

// scaled returns max(1, int(base*scale)).
func scaled(base int) int {
	n := int(float64(base) * *scale)
	if n < 1 {
		n = 1
	}
	return n
}

func dur(d time.Duration) string {
	if d < time.Microsecond {
		return d.String() // nanosecond resolution for primitive latencies
	}
	if d < time.Millisecond {
		return d.Round(10 * time.Nanosecond).String()
	}
	return d.Round(time.Microsecond).String()
}

func perOp(total time.Duration, ops int) string {
	if ops == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fµs", float64(total.Nanoseconds())/float64(ops)/1000)
}
