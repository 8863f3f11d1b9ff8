package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"puddles/internal/core"
	"puddles/internal/pmem"
	"puddles/internal/ycsb"
)

// env is what the driver hands a workload.
type env struct {
	seed    int64
	seconds float64     // --seconds: sizes the timed rounds (see ops)
	scale   float64     // 1 for real runs; the smoke test shrinks loads and rounds with it
	tr      *tracer     // what the workload records into: nil when tracing is off
	tracer  *tracer     // non-nil on a traced run, which traces half of the rounds
	wire    *wireCounts // non-nil on a traced run

	attempted atomic.Uint64 // ops issued, checks included
	failed    atomic.Uint64 // ops that returned an error or were refused
}

// scaled shrinks a load size for the smoke test, never below floor.
func (e *env) scaled(n, floor int) int {
	if v := int(float64(n) * e.scale); v > floor {
		return v
	}
	return floor
}

// ops sizes a timed round. A round is a COUNT of operations, never a
// stretch of time: a count that followed the clock would tie the journal
// a recovery reloads, the grants behind peak_rss_mb and the mix behind
// fences_per_op to how fast the host ran, and a faster daemon would read
// as a recovery and memory regression. at10 is the round's count at
// --seconds 10, pinned per workload so that the rounds together take
// about 10 s on the reference box; --seconds stretches it in proportion.
// Figures compare only between runs at one --seconds, and BENCHMARK.json
// pins it.
func (e *env) ops(at10, floor int) int {
	if v := int(float64(at10) * e.seconds / defaultSeconds * e.scale); v > floor {
		return v
	}
	return floor
}

// roundStat is one round of a workload's timed phase. "Read" ops
// persist nothing, "write" ops are durable when acknowledged; latencies
// are kept per class because a mixed median sits on the cliff between
// the two.
type roundStat struct {
	ops     uint64
	elapsed time.Duration
	reads   []int64 // ns
	writes  []int64 // ns
}

// workload is one traffic mix over the same life cycle: set up, then
// rounds of (timed traffic, verify, power failure, timed recovery,
// verify), then final invariants.
type workload interface {
	// setup boots the machine(s), dials, creates and loads.
	setup() error
	// rounds is how many rounds the timed phase has.
	rounds() int
	// pooled says the rounds are not repetitions of each other (the
	// image ages, a round holds one or two long stalls, or it has too
	// few samples for a quantile of its own), so rates and quantiles
	// are taken over all rounds together, not as a median of rounds.
	pooled() bool
	// round runs round i's fixed number of operations and times them.
	round(i int) (roundStat, error)
	// tail is the tail quantile read_p99_us and write_p99_us report: 0.99
	// wherever a run's fixed sample count leaves ten samples beyond it.
	tail() float64
	// verify checks that every acknowledged write reads back.
	verify() error
	// crashRecover leaves work in flight, power-fails the home machine
	// and returns the time from reboot to the first successful
	// OpenPool, with the workload re-attached to the recovered image.
	crashRecover() (time.Duration, error)
	// finish checks the final invariants (registry, heaps, census).
	finish() error
	// close releases the machine(s); safe after a failed setup.
	close()
	// devices lists the simulated devices, home first.
	devices() []*pmem.Device
	// home is the machine that is crashed and whose registry is judged.
	home() *machine
	// userBytes is the application payload stored after load.
	userBytes() uint64
	// pools lists the home pools whose heaps the ledger censuses.
	pools() []*core.Pool
}

type workloadDef struct {
	name string
	why  string
	make func(e *env) workload
}

var workloads = []workloadDef{
	{"kv-update", "YCSB A on kvstore: the undo-log tx path (core, plog, pmem) does the work; alloc, proto and daemon almost none",
		func(e *env) workload { return newKV(e, "A") }},
	{"kv-read", "YCSB B on the same store: seqlock reads and the COW range index dominate; a write-path gain that taxes reads shows here",
		func(e *env) workload { return newKV(e, "B") }},
	{"shadow-update", "the YCSB A key stream on ShadowMap: the MOD commit discipline, one fence and a path copy per Put",
		func(e *env) workload { return newShadow(e) }},
	{"ctl-churn", "control plane only, one closed-loop client: proto codec, daemon dispatch, journal and checkpoints work, the data path idles",
		func(e *env) workload { return newCtl(e) }},
	{"crash-recover", "chaos device losing unflushed lines, 8 apps with parked in-flight txs: daemon recovery and plog replay do the work",
		func(e *env) workload { return newCrash(e) }},
	{"relocate", "two daemons on TCP: export/import with conflicting addresses and live migration; reloc, core import and daemon migrate work",
		func(e *env) workload { return newReloc(e) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef mirrors one metric entry of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is printed by every workload with tracing off. BENCHMARK.json
// carries the same list; TestManifestMatches keeps them equal.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.10},
	{"read_p50_us", "us", "lower", 0.25},
	{"read_p99_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.15},
	{"write_p99_us", "us", "lower", 0.25},
	{"fences_per_op", "count", "lower", 0.01},
	{"space_amp", "ratio", "lower", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"recovery_ms", "ms", "lower", 0.25},
}

// value is one reported figure and the number of samples behind it.
type value struct {
	v    float64
	unit string
	n    int
}

// report is what one run of one workload produces.
type report struct {
	workload  string
	seed      int64
	traced    bool
	attempted uint64
	failed    uint64
	metrics   map[string]value
	order     []string
	notes     []string // per-round detail for the human-readable table
}

func (r *report) set(name, unit string, v float64, n int) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = value{v, unit, n}
}

// resultLine is the last line of standard output, in the shape the
// builder contract fixes.
func (r *report) resultLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]mv{}}
	for name, m := range r.metrics {
		out.Metrics[name] = mv{m.v, m.unit}
	}
	blob, _ := json.Marshal(out)
	return string(blob)
}

// print writes the human-readable table: every metric by name with its
// unit and sample count.
func (r *report) print(w *bufio.Writer) {
	kind := "end-to-end"
	if r.traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s\n", r.workload, r.seed, kind)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", name, m.v, m.unit, m.n)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-36s %14.6f %-6s n=%d\n", "failed_ops_share", share, "ratio", r.attempted)
}

func fmtRounds(xs []float64) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, " %.4g", x)
	}
	return b.String()
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// runWorkers is the closed loop of the data-path workloads: fn runs on
// maxWorkers goroutines, each through its share of the round, and what
// the workers recorded is merged into one round.
func runWorkers(e *env, fn func(wk int, out *roundStat)) roundStat {
	var (
		wg    sync.WaitGroup
		parts [maxWorkers]roundStat
	)
	start := time.Now()
	for wk := 0; wk < maxWorkers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			fn(wk, &parts[wk])
		}(wk)
	}
	wg.Wait()
	rs := roundStat{elapsed: time.Since(start)}
	for _, p := range parts {
		rs.ops += p.ops
		rs.reads = append(rs.reads, p.reads...)
		rs.writes = append(rs.writes, p.writes...)
	}
	e.attempted.Add(rs.ops)
	return rs
}

// stream is one data-path worker's YCSB request stream, continued
// across rounds, and the number of ops it has issued.
type stream struct {
	gen *ycsb.Generator
	idx uint64
}

// run is the sampled closed loop of one worker: the next n ops come off
// the stream, do executes each and says whether it succeeded, and one op
// in sampleEvery (by op index) is timed into its class and, on a traced
// round, recorded as a span named names[0] (read) or names[1] (write).
func (s *stream) run(e *env, wk, parent int, names [2]string, n int, out *roundStat, do func(op ycsb.Op) bool) {
	for ; n > 0; n-- {
		op := s.gen.Next()
		timed := s.idx%sampleEvery == 0
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		if !do(op) {
			e.failed.Add(1)
		}
		if timed {
			t1 := time.Now()
			if op.Kind == ycsb.OpRead {
				out.reads = append(out.reads, int64(t1.Sub(t0)))
				e.tr.op(parent, names[0], uint64(wk)<<56|s.idx, t0, t1)
			} else {
				out.writes = append(out.writes, int64(t1.Sub(t0)))
				e.tr.op(parent, names[1], uint64(wk)<<56|s.idx, t0, t1)
			}
		}
		s.idx++
		out.ops++
	}
}

// setUp boots and loads a fresh instance of the workload.
func setUp(def workloadDef, e *env) (workload, time.Duration, error) {
	w := def.make(e)
	t0 := time.Now()
	if err := w.setup(); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return w, time.Since(t0), nil
}

// measured is what the timed rounds of one run produced.
type measured struct {
	rounds   []roundStat
	recovery []float64 // ms, one per round
	// The layer counters (devices and home daemon) at the edges of each
	// round; fences_per_op comes from them, the ledger uses the rest.
	before, after []layerSnap

	// Traced runs only: which rounds had tracing on, and what each
	// recovery replayed.
	traced            []bool
	replayed, applied []float64
}

// measure arms the fence latency and runs the workload's rounds, each
// followed by verification, a power failure, the timed recovery and a
// second verification, then the final invariants.
func measure(w workload, e *env) (*measured, error) {
	for _, dev := range w.devices() {
		dev.SetFenceLatency(fenceLatency)
	}
	n := w.rounds()
	m := &measured{}
	for i := 0; i < n; i++ {
		// Collect between rounds, outside every timed region, so the
		// heap a round starts with does not depend on the round before.
		runtime.GC()
		if e.tracer != nil {
			// Rounds go off, on, on, off: the traced and untraced rates
			// side by side are the tracing overhead, and a workload that
			// slows as its image ages slows both sides alike.
			if e.tr = nil; i%4 == 1 || i%4 == 2 {
				e.tr = e.tracer
			}
			m.traced = append(m.traced, e.tr != nil)
		}
		m.before = append(m.before, snapLayers(w))
		rs, err := w.round(i)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		m.after = append(m.after, snapLayers(w))
		if rs.ops == 0 || len(rs.reads) == 0 || len(rs.writes) == 0 {
			return nil, fmt.Errorf("round %d: %d ops, %d read and %d write samples", i, rs.ops, len(rs.reads), len(rs.writes))
		}
		m.rounds = append(m.rounds, rs)
		if err := w.verify(); err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		runtime.GC()
		took, err := w.crashRecover()
		if err != nil {
			return nil, fmt.Errorf("round %d: crash/recover: %w", i, err)
		}
		m.recovery = append(m.recovery, float64(took)/float64(time.Millisecond))
		if e.tracer != nil {
			st := w.home().d.Stats()
			m.replayed = append(m.replayed, float64(st.LogsReplayed))
			m.applied = append(m.applied, float64(st.EntriesApplied))
		}
		if err := w.verify(); err != nil {
			return nil, fmt.Errorf("round %d: after recovery: %w", i, err)
		}
	}
	return m, w.finish()
}

// report fills in the figures that come from the timed rounds. Every
// timing is the median of the per-round values (per-round quantiles
// first); a pooled workload, whose rounds are not repetitions of each
// other, takes its rounds together instead.
func (m *measured) report(rep *report, pooled bool, tail float64) {
	var (
		rate, fpo     []float64
		reads, writes [][]int64
		ops, fences   uint64
		elapsed       time.Duration
	)
	for i, rs := range m.rounds {
		f := m.after[i].dev.Fences - m.before[i].dev.Fences
		rate = append(rate, float64(rs.ops)/rs.elapsed.Seconds())
		fpo = append(fpo, float64(f)/float64(rs.ops))
		reads, writes = append(reads, rs.reads), append(writes, rs.writes)
		ops += rs.ops
		fences += f
		elapsed += rs.elapsed
	}
	if pooled {
		rep.set("ops_per_s", "1/s", float64(ops)/elapsed.Seconds(), int(ops))
		rep.set("fences_per_op", "count", float64(fences)/float64(ops), int(ops))
	} else {
		rep.set("ops_per_s", "1/s", median(rate), int(ops))
		rep.set("fences_per_op", "count", median(fpo), int(ops))
	}
	for _, c := range []struct {
		name    string
		samples [][]int64
		q       float64
	}{
		{"read_p50_us", reads, 0.50}, {"read_p99_us", reads, tail},
		{"write_p50_us", writes, 0.50}, {"write_p99_us", writes, tail},
	} {
		ns, n := roundsQuantile(c.samples, c.q, pooled)
		rep.set(c.name, "us", ns/1000, n)
	}
	rep.set("recovery_ms", "ms", median(m.recovery), len(m.recovery))
	if tail != 0.99 {
		// One name for all workloads, so the percentile really used is
		// stamped beside the figure.
		rep.notes = append(rep.notes, fmt.Sprintf("read_p99_us and write_p99_us are p%.0f here: p99 needs 1000 samples, a run has %d and %d",
			100*tail, rep.metrics["read_p99_us"].n, rep.metrics["write_p99_us"].n))
	}
	rep.notes = append(rep.notes, "ops_per_s by round:"+fmtRounds(rate), "recovery_ms by round:"+fmtRounds(m.recovery))
}

// pin applies the process-wide part of the pinned configuration and
// makes sure the directory for sockets and traces exists.
func pin() error {
	runtime.GOMAXPROCS(maxProcs)
	return os.MkdirAll(outDir, 0o755)
}

// runWorkload is one untraced run: the end-to-end metrics of one
// workload at one seed.
func runWorkload(def workloadDef, e *env) (*report, error) {
	if err := pin(); err != nil {
		return nil, err
	}
	rep := &report{workload: def.name, seed: e.seed, metrics: map[string]value{}}

	// Set up several times and report the median, so that work a later
	// change moves into set-up shows; the last instance is the one run.
	// A short set-up is repeated more often, up to setupBudget.
	var (
		w      workload
		setups []float64
		spent  time.Duration
	)
	for len(setups) < setupReps || (spent < setupBudget && len(setups) < maxSetupReps) {
		if w != nil {
			w.close()
			runtime.GC()
		}
		var took time.Duration
		var err error
		if w, took, err = setUp(def, e); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		spent += took
	}
	defer func() { w.close() }()
	reserved := w.home().d.Stats().ReservedBytes

	m, err := measure(w, e)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", "s", median(setups), len(setups))
	m.report(rep, w.pooled(), w.tail())
	rep.set("space_amp", "ratio", float64(reserved)/float64(w.userBytes()), 1)
	rep.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	rep.attempted, rep.failed = e.attempted.Load(), e.failed.Load()
	return rep, nil
}
