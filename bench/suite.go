package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runRecord is one run of one workload as a results file keeps it: the
// child's result line plus what identifies the run.
type runRecord struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     int     `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// resultsFile is what the suite writes with -out and compare reads.
type resultsFile struct {
	Config map[string]any `json:"config"`
	Runs   []runRecord    `json:"runs"`
}

// runChild runs one workload in a fresh child process (a re-exec of this
// binary), so that resident set and heap state do not leak from one
// workload into the next. The child's table goes to our standard output;
// its last line is the result.
func runChild(workload string, seed int64, seconds float64, trace int) (runRecord, error) {
	rec := runRecord{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace}
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	cmd := exec.Command(exe,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rec, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	for _, line := range lines[:len(lines)-1] {
		fmt.Println(line)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		return rec, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if !rec.Correct {
		return rec, fmt.Errorf("%s: reported incorrect output", workload)
	}
	return rec, nil
}

// runSuite runs every workload `runs` times and optionally writes the
// results file.
func runSuite(seed int64, seconds float64, trace, runs int, out string) error {
	res := resultsFile{Config: pinned()}
	res.Config["seed"] = seed
	res.Config["seconds"] = seconds
	cfg, _ := json.Marshal(res.Config)
	fmt.Printf("config %s\n", cfg)
	for r := 0; r < runs; r++ {
		for _, def := range workloads {
			rec, err := runChild(def.name, seed, seconds, trace)
			if err != nil {
				return err
			}
			res.Runs = append(res.Runs, rec)
		}
	}
	if out == "" {
		return nil
	}
	blob, err := json.MarshalIndent(&res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(blob, '\n'), 0o644)
}

func suiteMain(seed int64, seconds float64, trace bool, runs int, out string) int {
	t := 0
	if trace {
		t = 1
	}
	if err := runSuite(seed, seconds, t, runs, out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// manifest is the part of BENCHMARK.json compare needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadManifest finds BENCHMARK.json beside bench/ or in the working
// directory: the bounds are fixed there, not in this program.
func loadManifest() (*manifest, error) {
	var lastErr error
	for _, p := range []string{filepath.Join("..", "BENCHMARK.json"), "BENCHMARK.json"} {
		blob, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var m manifest
		if err := json.Unmarshal(blob, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &m, nil
	}
	return nil, lastErr
}

func loadResults(path string) (*resultsFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict of one metric × workload pair.
const (
	vOK         = "ok"
	vBetter     = "better"
	vRegression = "REGRESSION"
	vUnresolved = "unresolved"
)

// judge compares the runs of one metric on one workload. B regresses
// when its median is worse than A's by more than the bound; when either
// side's own spread (quartile distance over median) exceeds the bound
// the pair is unresolved rather than unchanged.
func judge(a, b []float64, better string, bound float64) (verdict string, change, spread float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	worse := change
	if better == "higher" {
		worse = -change
	}
	spread = spreadShare(a)
	if s := spreadShare(b); s > spread {
		spread = s
	}
	switch {
	case spread > bound:
		return vUnresolved, change, spread
	case worse > bound:
		return vRegression, change, spread
	case worse < -bound:
		return vBetter, change, spread
	}
	return vOK, change, spread
}

// tally counts the verdicts of one comparison.
type tally struct{ regressions, better, unresolved int }

// compareResults prints one row per end-to-end metric × workload and
// tallies the verdicts. A failed op where A had none is a regression
// whatever the bound.
func compareResults(w *bufio.Writer, m *manifest, a, b *resultsFile) (t tally) {
	collect := func(r *resultsFile, workload, metric string) []float64 {
		var xs []float64
		for _, run := range r.Runs {
			if v, ok := run.Metrics[metric]; ok && run.Workload == workload && run.Trace == 0 {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	failedShare := func(r *resultsFile, workload string) float64 {
		var failed, attempted uint64
		for _, run := range r.Runs {
			if run.Workload == workload {
				failed += run.Failed
				attempted += run.Attempted
			}
		}
		if attempted == 0 {
			return 0
		}
		return float64(failed) / float64(attempted)
	}
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, wl := range m.Workloads {
		for _, em := range m.EndToEnd {
			xa, xb := collect(a, wl.Name, em.Name), collect(b, wl.Name, em.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v, change, spread := judge(xa, xb, em.Better, em.Bound)
			switch v {
			case vRegression:
				t.regressions++
			case vBetter:
				t.better++
			case vUnresolved:
				t.unresolved++
			}
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %+8.2f%% %7.2f%% %6.0f%%  %s\n",
				wl.Name, em.Name, median(xa), median(xb), 100*change, 100*spread, 100*em.Bound, v)
		}
		fa, fb := failedShare(a, wl.Name), failedShare(b, wl.Name)
		v := vOK
		if fb > fa {
			v = vRegression
			t.regressions++
		}
		fmt.Fprintf(w, "%-14s %-16s %14.6f %14.6f %9s %8s %7s  %s\n", wl.Name, "failed_ops_share", fa, fb, "", "", "any", v)
	}
	return t
}

func compareFiles(pathA, pathB string) (tally, error) {
	m, err := loadManifest()
	if err != nil {
		return tally{}, err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return tally{}, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return tally{}, err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "A = %s   B = %s\n", pathA, pathB)
	t := compareResults(w, m, a, b)
	fmt.Fprintf(w, "%d regression(s), %d better, %d unresolved\n", t.regressions, t.better, t.unresolved)
	return t, nil
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	t, err := compareFiles(args[0], args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: compare: %v\n", err)
		return 2
	}
	if t.regressions > 0 {
		return 1
	}
	return 0
}

// selfcheckMain is the tool behind the last acceptance criterion: the
// suite twice with one seed and once with another (three runs of every
// workload each time), at the pinned run_seconds, compared by the same
// rule. Two sets of runs of one commit must agree within the bounds, and
// a second key stream must stay inside them too.
func selfcheckMain() int {
	// Three runs a side: a single run's p99 moves by more than its bound
	// from one run to the next, a median of three does not.
	const runs = 3
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	files := []string{
		filepath.Join(outDir, "selfcheck-seed1-a.json"),
		filepath.Join(outDir, "selfcheck-seed1-b.json"),
		filepath.Join(outDir, "selfcheck-seed2.json"),
	}
	for i, seed := range []int64{1, 1, 2} {
		if err := runSuite(seed, defaultSeconds, 0, runs, files[i]); err != nil {
			fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
			return 1
		}
	}
	bad := 0
	for _, other := range files[1:] {
		t, err := compareFiles(files[0], other)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
			return 1
		}
		// The same commit on both sides: "better" disagrees as much as
		// "worse" does.
		bad += t.regressions + t.better + t.unresolved
	}
	if bad > 0 {
		return 1
	}
	fmt.Println("selfcheck: every end-to-end metric × workload pair agrees within its bound")
	return 0
}
