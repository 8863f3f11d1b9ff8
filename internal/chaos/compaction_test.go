package chaos

import "testing"

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
	res, err := CompactionChurn(40000, stride)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	if res.Completed == 0 {
		t.Fatalf("sweep never completed the workload (probes=%d); raise maxOffset", res.Probes)
	}
	t.Logf("probes=%d completed=%d", res.Probes, res.Completed)
}
