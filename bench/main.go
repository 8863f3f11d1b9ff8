// Command bench is the repository's one pinned benchmark: six workloads
// against a real daemon behind a real socket, ten end-to-end metrics
// measured with tracing off, and a per-layer ledger from a separate
// traced run. See README.md.
//
//	go run -C bench .                          the suite, each workload in a fresh child process
//	go run -C bench . -trace 1                 the per-layer ledger and trace.overhead_share
//	go run -C bench . --workload kv-update --seed 1 --seconds 10 --trace 0
//	go run -C bench . compare A.json B.json
//	go run -C bench . selfcheck
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "selfcheck":
			if len(os.Args) > 2 {
				fmt.Fprintln(os.Stderr, "usage: bench selfcheck")
				os.Exit(2)
			}
			os.Exit(selfcheckMain())
		}
	}
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: the whole suite, one child process each)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", defaultSeconds, "sizes the timed rounds: their fixed op counts are pinned to take about this long on the reference box")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics with tracing off")
		out     = flag.String("out", "", "suite only: also write the runs to this results file (input to compare)")
		runs    = flag.Int("runs", 1, "suite only: runs per workload")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *runs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(suiteMain(*seed, *seconds, *trace == 1, *runs, *out))
	}
	def, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: *seconds, scale: 1}
	run := runWorkload
	if *trace == 1 {
		run = runTraced
	}
	rep, err := run(def, e)
	if err != nil {
		// A failed check fails the command instead of printing a number.
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	rep.print(w)
	fmt.Fprintln(w, rep.resultLine())
	w.Flush()
}
