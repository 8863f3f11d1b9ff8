package chaos

import "testing"

func TestCommitProtocolSweep(t *testing.T) {
	// Stride 1: every persist event of every scenario is a crash point,
	// each under eight seeds and under DropVolatile.
	for _, s := range CommitProtocol() {
		res := runSweep(t, s, 4000, 1)
		if res.Completed != 1 {
			t.Fatalf("%s: sweep ended before Mutate ran to completion", s.Name)
		}
		t.Logf("%s: %d probes", s.Name, res.Probes)
	}
}
