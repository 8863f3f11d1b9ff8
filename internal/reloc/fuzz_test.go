package reloc

import (
	"runtime"
	"testing"
)

// FuzzRelocContainer fuzzes the export-container decoder, which reads
// whatever file a user hands to import: it must never panic, and it may
// allocate no more than a small multiple of the input — a count the
// input cannot hold is refused before anything is allocated for it.
// The checked-in seeds are a valid container, a truncated one, one
// claiming 2^20 types in 65 bytes, and a valid one plus a byte.
func FuzzRelocContainer(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := DecodeBytes(blob)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, 16*uint64(len(blob))+64<<10; n > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(blob), n, limit)
		}
		if err == nil && c.Validate() != nil {
			t.Fatal("an accepted container does not validate")
		}
	})
}
