package chaos

import "testing"

// TestShardedLogChurn power-fails the sharded log directory at every
// swept persistence offset, for a 1-shard and a 4-shard geometry, and
// requires the recovered registration set to be exactly explainable
// (see ShardedLogChurn).
func TestShardedLogChurn(t *testing.T) {
	for _, shards := range []int{1, 4} {
		res, err := ShardedLogChurn(shards, 400, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("shards=%d: %d violations, e.g. %s", shards, len(res.Violations), res.Violations[0])
		}
		if res.Probes == 0 {
			t.Fatalf("shards=%d: no crash points probed", shards)
		}
		t.Logf("shards=%d: %d probes, %d completed", shards, res.Probes, res.Completed)
	}
}
