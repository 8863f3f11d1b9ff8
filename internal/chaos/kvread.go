package chaos

import (
	"fmt"

	"puddles/internal/baselines/puddleslib"
	"puddles/internal/kvstore"
)

// kvValue builds the uniform marker value version `ver` of key k: every
// byte is the same function of (key, version), so any torn or
// half-applied Put shows up as a mixed-byte value and any lost update
// as a version outside the completed range.
func kvValue(k uint64, ver, size int) []byte {
	b := byte(k*31 + uint64(ver)*7 + 1)
	v := make([]byte, size)
	for i := range v {
		v[i] = b
	}
	return v
}

// KVReadPath is the crash-consistency scenario for the seqlock read
// path: a striped kvstore is seeded with `records` keys, then every
// key is overwritten `updates` times while the device is armed to
// power-fail mid-Put. After reboot and recovery the store is re-opened
// with optimistic reads enabled — no reader ever coordinates with
// recovery — and every key must resolve to exactly one fully-written
// version: uniform bytes, version within [0, updates]. The volatile
// stripe table (latches, seq counters, read counters) is rebuilt from
// zero by kvstore.New, which is the whole point: crash consistency
// comes from the transaction logs alone.
func KVReadPath(records, updates int, valueSize int) Scenario {
	open := func(e *Env) (*kvstore.Store, error) {
		return kvstore.New(puddleslib.Wrap(e.Client, e.Pool), kvstore.Options{
			Buckets: 64, ValueSize: uint32(valueSize), LatchStripes: 8,
		})
	}
	// put writes versions from..to of every key, version by version.
	put := func(from, to int) func(*Env) error {
		return func(e *Env) error {
			s, err := open(e)
			if err != nil {
				return err
			}
			for ver := from; ver <= to; ver++ {
				for k := 0; k < records; k++ {
					if err := s.Put(uint64(k), kvValue(uint64(k), ver, valueSize)); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	return Scenario{
		Name:   "kv-read-path",
		Setup:  put(0, 0),
		Mutate: put(1, updates),
		Check: func(e *Env) error {
			s, err := open(e)
			if err != nil {
				return err
			}
			dst := make([]byte, valueSize)
			for k := 0; k < records; k++ {
				if err := s.Get(uint64(k), dst); err != nil {
					return fmt.Errorf("key %d lost after recovery: %w", k, err)
				}
				b := dst[0]
				for i, x := range dst {
					if x != b {
						return fmt.Errorf("key %d value torn after recovery: byte 0 = %#x, byte %d = %#x", k, b, i, x)
					}
				}
				ok := false
				for ver := 0; ver <= updates && !ok; ver++ {
					ok = b == kvValue(uint64(k), ver, 1)[0]
				}
				if !ok {
					return fmt.Errorf("key %d recovered to marker %#x, not any committed version", k, b)
				}
			}
			return nil
		},
	}
}
