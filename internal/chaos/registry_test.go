package chaos

import (
	"strings"
	"testing"
)

// TestDaemonMetaChurnSweep power-fails the daemon mid-journal at
// swept offsets and checks that per-entity records always recover to
// a bidirectionally consistent registry.
func TestDaemonMetaChurnSweep(t *testing.T) {
	res := runSweep(t, RegistryChurn(1), 4000, 23)
	t.Logf("registry-churn: %d probes, %d completed", res.Probes, res.Completed)
}

// TestDaemonMetaChurnDense probes every persistence event in a short
// prefix — the dense sweep makes sure no torn-batch window hides
// between the strides of the main sweep.
func TestDaemonMetaChurnDense(t *testing.T) {
	if testing.Short() {
		t.Skip("dense sweep")
	}
	res, err := Sweep(RegistryChurn(1), 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("%d violations:\n%s", len(res.Violations), strings.Join(res.Violations, "\n"))
	}
}

// TestCompactionChurn sweeps power failures through a churn run that
// crosses several compaction cycles of a tiny journal: crashes land
// mid-chunk, on commit chunks, mid-journal-switch and
// mid-journal-reset. Every reboot must recover a consistent registry
// with the pre-crash sentinel intact.
func TestCompactionChurn(t *testing.T) {
	stride := int64(13)
	if testing.Short() {
		stride = 211
	}
	res := runSweep(t, CompactionChurn(12), 40000, stride)
	if res.Completed == 0 {
		t.Fatalf("sweep never completed the workload (probes=%d); raise maxOffset", res.Probes)
	}
	t.Logf("compaction-churn: %d probes", res.Probes)
}

// TestCompactionChurnMustCheckpoint cuts the churn back to three laps,
// which fit in the tiny journal: the completed run makes no checkpoint
// and the sweep must fail rather than pass without crashing one.
func TestCompactionChurnMustCheckpoint(t *testing.T) {
	_, err := Sweep(CompactionChurn(3), 1<<20, 1<<19)
	if err == nil || !strings.Contains(err.Error(), "checkpoints, want >= 3") {
		t.Fatalf("a 3-lap compaction sweep returned %v, want the checkpoint guard's error", err)
	}
}
