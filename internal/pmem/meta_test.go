package pmem

import "testing"

// TestMetaLayoutPinned pins every metadata region address to the value
// existing images were written with. Moving any of them strands those
// images, so a change here needs a format version bump, not a fix to
// this table. The reserved hole spans exactly the two retired 8 MiB
// snapshot slots.
func TestMetaLayoutPinned(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"MetaBase", uint64(MetaBase), 0x100000},
		{"MetaReserved", uint64(MetaReserved), 0x101000},
		{"MetaReservedBytes", MetaReservedBytes, 2 * 0x800000},
		{"MetaJournalSize", MetaJournalSize, 0x800000},
		{"MetaJournal0", uint64(MetaJournal0), 0x1101000},
		{"MetaJournal1", uint64(MetaJournal1), 0x1901000},
		{"MetaCkptBase", uint64(MetaCkptBase), 0x2101000},
		{"MetaCkptSize", MetaCkptSize, 0x4000000},
		{"MetaEnd", uint64(MetaEnd), 0x6101000},
	} {
		if c.got != c.want {
			t.Errorf("%s = %#x, want %#x", c.name, c.got, c.want)
		}
	}
}
