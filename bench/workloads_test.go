package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// smokeEnv is every workload at 1/200 size, so that API drift in
// internal/* breaks `go test` here and not the next benchmark run.
func smokeEnv(seed int64) *env { return &env{seed: seed, seconds: defaultSeconds, scale: 1.0 / 200} }

// The traced run covers the whole life cycle (set-up, rounds, crash,
// recovery, verification, final invariants) and every ladder rung.
func TestSmokeEveryWorkloadTraced(t *testing.T) {
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			rep, err := runTraced(def, smokeEnv(1))
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d ops failed", rep.failed, rep.attempted)
			}
			for _, m := range perLayer {
				if _, ok := rep.metrics[m.name]; !ok {
					t.Errorf("per-layer metric %s not reported", m.name)
				}
			}
			if len(rep.metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, %d declared", len(rep.metrics), len(perLayer))
			}
			if _, err := os.Stat("out/trace-" + def.name + ".json"); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// The untraced path on the cheapest workloads: every end-to-end metric,
// none of them zero, and a result line in the contract's shape.
func TestSmokeEndToEndReport(t *testing.T) {
	for _, name := range []string{"kv-update", "relocate"} {
		def, _ := findWorkload(name)
		rep, err := runWorkload(def, smokeEnv(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range endToEnd {
			v, ok := rep.metrics[m.name]
			if !ok || v.v <= 0 || v.unit != m.unit || v.n == 0 {
				t.Errorf("%s %s = %+v (reported %v)", name, m.name, v, ok)
			}
		}
		var line struct {
			Correct   bool
			Attempted uint64
			Failed    uint64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(rep.resultLine()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted == 0 || line.Failed != 0 || len(line.Metrics) != len(endToEnd) {
			t.Fatalf("result line %+v", line)
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		rep.print(w)
		w.Flush()
		if !strings.Contains(buf.String(), "failed_ops_share") || !strings.Contains(buf.String(), "n=") {
			t.Fatalf("table lacks the failure share or sample counts:\n%s", buf.String())
		}
	}
}

// The same seed gives the same op stream, and the same op stream costs
// the same number of fences; another seed gives another stream.
func TestSameSeedSameStreamSameFences(t *testing.T) {
	const ops = 3000
	run := func(seed int64) (stream []uint64, fencesPerOp float64) {
		w := newKV(smokeEnv(seed), "A")
		w.ops = ops
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		defer w.close()
		g := w.gen(0) // a second copy of worker 0's stream
		for i := 0; i < 64; i++ {
			stream = append(stream, g.Next().Key)
		}
		f0 := w.m.dev.Stats().Fences
		var out roundStat
		w.worker(0, 0, &out)
		if out.ops != ops || w.e.failed.Load() != 0 {
			t.Fatalf("%d ops, %d failed", out.ops, w.e.failed.Load())
		}
		if err := w.verify(); err != nil {
			t.Fatal(err)
		}
		return stream, float64(w.m.dev.Stats().Fences-f0) / ops
	}
	s1, f1 := run(7)
	s2, f2 := run(7)
	s3, _ := run(8)
	if f1 != f2 {
		t.Fatalf("fences_per_op %v then %v with one seed", f1, f2)
	}
	same := true
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("op %d differs with one seed", i)
		}
		same = same && s1[i] == s3[i]
	}
	if same {
		t.Fatal("another seed gave the same key stream")
	}
}

// A round is a count of operations, not a stretch of time: on a host made
// several times slower (fences of 20 µs instead of 200 ns) every workload
// issues exactly the same operations, and the counters behind
// fences_per_op, recovery_ms (journal to reload) and peak_rss_mb (grants)
// stay within the 1 % fences_per_op may move.
func TestRoundDoesNotFollowTheClock(t *testing.T) {
	type counts struct {
		ops             uint64
		fences, journal float64
		took            time.Duration
	}
	run := func(def workloadDef, fence time.Duration) counts {
		w := def.make(smokeEnv(3))
		defer w.close()
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		for _, dev := range w.devices() {
			dev.SetFenceLatency(fence)
		}
		before := snapLayers(w)
		rs, err := w.round(0)
		if err != nil {
			t.Fatal(err)
		}
		after := snapLayers(w)
		return counts{rs.ops, float64(after.dev.Fences - before.dev.Fences), float64(after.d.JournalBytes - before.d.JournalBytes), rs.elapsed}
	}
	for _, def := range workloads {
		fast, slow := run(def, fenceLatency), run(def, 100*fenceLatency)
		t.Logf("%s: %+v / %+v", def.name, fast, slow)
		if slow.took < fast.took*3/2 {
			t.Errorf("%s: the slow host took %v against %v: the test slowed nothing", def.name, slow.took, fast.took)
		}
		if fast.ops != slow.ops {
			t.Errorf("%s: %d ops, %d on a slower host", def.name, fast.ops, slow.ops)
		}
		for _, c := range []struct {
			what       string
			fast, slow float64
		}{{"fences", fast.fences, slow.fences}, {"journal bytes", fast.journal, slow.journal}} {
			// 64: a data-path round journals a few hundred bytes of leases.
			if d := c.slow - c.fast; d > 0.01*c.fast+64 || -d > 0.01*c.fast+64 {
				t.Errorf("%s: %v %s, %v on a slower host", def.name, c.fast, c.what, c.slow)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		b      []float64
		better string
		bound  float64
		want   string
	}{
		{[]float64{104, 105, 103, 104}, "lower", 0.10, vOK},
		{[]float64{120, 121, 119, 120}, "lower", 0.10, vRegression},
		{[]float64{120, 121, 119, 120}, "higher", 0.10, vBetter},
		{[]float64{80, 81, 79, 80}, "higher", 0.10, vRegression},
		{[]float64{60, 140, 80, 120}, "lower", 0.10, vUnresolved}, // B's own spread exceeds the bound
		{[]float64{100}, "lower", 0.05, vOK},                      // a single run carries no spread of its own
	} {
		if got, _, _ := judge(base, c.b, c.better, c.bound); got != c.want {
			t.Errorf("judge(%v, %s, %v) = %s, want %s", c.b, c.better, c.bound, got, c.want)
		}
	}
}

// BENCHMARK.json and the tables in this program describe one benchmark.
func TestManifestMatches(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d here", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, program {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d here", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit {
				t.Errorf("%s %d: manifest %+v, program %+v", kind, i, g, d)
			}
			if bounded && (g.Better != d.better || g.Bound != d.bound) {
				t.Errorf("%s %s: manifest %s/%v, program %s/%v", kind, d.name, g.Better, g.Bound, d.better, d.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}
