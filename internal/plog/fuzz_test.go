package plog

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"testing"

	"puddles/internal/pmem"
	"puddles/internal/uid"
)

// The fuzzed log lives in fuzzRegion; entries may write to fuzzTarget
// and nowhere else (the daemon's credential filter, in miniature).
var (
	fuzzRegion = pmem.Range{Start: 0x200000, End: 0x200000 + 2048}
	fuzzTarget = pmem.Range{Start: 0x300000, End: 0x300000 + 4096}
)

// fuzzSeedLog builds a log image by running the real writer and lets
// spoil edit the bytes before they are returned.
func fuzzSeedLog(spoil func(img []byte)) []byte {
	dev := pmem.New()
	l, err := FormatLog(dev, fuzzRegion)
	if err != nil {
		panic(err)
	}
	if err := l.Append(Entry{Addr: fuzzTarget.Start + 64, Seq: SeqUndo, Order: OrderBackward, Data: []byte("before-image")}, nil); err != nil {
		panic(err)
	}
	img := make([]byte, fuzzRegion.Size())
	dev.Load(fuzzRegion.Start, img)
	if spoil != nil {
		spoil(img)
	}
	return bytes.TrimRight(img, "\x00")
}

func fuzzSeeds() map[string][]byte {
	put := func(off int, v uint64) func([]byte) {
		return func(img []byte) { binary.LittleEndian.PutUint64(img[off:], v) }
	}
	return map[string][]byte{
		"valid-one-entry": fuzzSeedLog(nil),
		"wild-size":       fuzzSeedLog(put(lHdrSize+eOffSize, ^uint64(7))),
		"wild-used":       fuzzSeedLog(put(lOffUsed, 1<<60)),
		"wild-next":       fuzzSeedLog(put(lOffNext, uint64(pmem.MaxAddr)+4096)),
		"wrong-epoch":     fuzzSeedLog(put(lOffEpoch, 77)),
	}
}

// FuzzLogSegment plants the input as the header and entry area of a
// log registered in a log space and runs the daemon's side of recovery
// over it: OpenLog, Entries, Pending, Replay(true, filter).
// Whatever the bytes, the decoder must not panic, must not allocate for
// more data than the segment can hold, must hand the filter only
// entries whose checksum is right under the log's epoch and whose
// sequence number the range selects, and must leave the log not
// pending.
func FuzzLogSegment(f *testing.F) {
	for _, img := range fuzzSeeds() {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		if uint64(len(img)) > fuzzRegion.Size() {
			img = img[:fuzzRegion.Size()]
		}
		dev := pmem.New()
		_, space := formatOneShard(t, dev)
		if _, err := FormatLog(dev, fuzzRegion); err != nil {
			t.Fatal(err)
		}
		if err := space.AddLog(fuzzRegion.Start, uid.New()); err != nil {
			t.Fatal(err)
		}
		dev.Zero(fuzzRegion.Start, int(fuzzRegion.Size()))
		dev.Store(fuzzRegion.Start, img)
		media := make([]byte, fuzzRegion.Size())
		dev.Load(fuzzRegion.Start, media)

		bounds := func(base pmem.Addr) (pmem.Range, bool) {
			return fuzzRegion, fuzzRegion.Contains(base)
		}
		for _, head := range space.Logs() {
			l, err := OpenLog(dev, head, bounds)
			if err != nil {
				return // not a log any more: recovery logs it and moves on
			}
			var held uint64
			for _, e := range scanned(l) {
				held += uint64(len(e.Data))
			}
			if held > fuzzRegion.Size() {
				t.Fatalf("Entries holds %d data bytes from a %d-byte segment", held, fuzzRegion.Size())
			}
			pending := l.Pending()
			epoch := binary.LittleEndian.Uint64(media[lOffEpoch:])
			rng := binary.LittleEndian.Uint64(media[lOffRange:])
			lo, hi := uint32(rng>>32), uint32(rng)
			offered := 0
			applied := l.Replay(true, func(e Entry) bool {
				offered++
				if e.Seq < lo || e.Seq >= hi {
					t.Fatalf("entry with seq %d offered under range (%d,%d)", e.Seq, lo, hi)
				}
				if e.Flags&FlagVolatile != 0 {
					t.Fatal("volatile entry offered to system recovery")
				}
				if !fuzzEntryOnMedia(media, epoch, e) {
					t.Fatalf("entry %+v offered, but no header on media carries its checksum under epoch %d", e, epoch)
				}
				end := e.Addr + pmem.Addr(len(e.Data))
				return e.Addr >= fuzzTarget.Start && end >= e.Addr && end <= fuzzTarget.End
			})
			if applied > offered {
				t.Fatalf("applied %d entries, offered %d", applied, offered)
			}
			if offered > 0 && !pending {
				t.Fatal("Replay offered entries of a log that was not pending")
			}
			if l.Pending() {
				t.Fatal("log still pending after Replay")
			}
			if l2, err := OpenLog(dev, head, bounds); err == nil && l2.Pending() {
				t.Fatal("reopened log still pending after Replay")
			}
		}
	})
}

// fuzzEntryOnMedia reports whether media holds, at some 8-aligned
// offset of the entry area, a header with e's fields whose stored
// checksum is the one e's bytes produce under epoch.
func fuzzEntryOnMedia(media []byte, epoch uint64, e Entry) bool {
	var hdr [EntryHdrSize]byte
	binary.LittleEndian.PutUint64(hdr[eOffAddr:], uint64(e.Addr))
	binary.LittleEndian.PutUint32(hdr[eOffSeq:], e.Seq)
	binary.LittleEndian.PutUint16(hdr[eOffOrder:], e.Order)
	binary.LittleEndian.PutUint16(hdr[eOffFlags:], e.Flags)
	binary.LittleEndian.PutUint64(hdr[eOffSize:], uint64(len(e.Data)))
	var eb [8]byte
	binary.LittleEndian.PutUint64(eb[:], epoch)
	ck := crc64.Update(0, crcTable, eb[:])
	ck = crc64.Update(ck, crcTable, hdr[8:])
	ck = crc64.Update(ck, crcTable, e.Data)
	binary.LittleEndian.PutUint64(hdr[eOffCk:], ck)
	for off := lHdrSize; off+EntryHdrSize+len(e.Data) <= len(media); off += 8 {
		if bytes.Equal(media[off:off+EntryHdrSize], hdr[:]) && bytes.Equal(media[off+EntryHdrSize:off+EntryHdrSize+len(e.Data)], e.Data) {
			return true
		}
	}
	return false
}

func TestFuzzSeedsBehave(t *testing.T) {
	// The seeds are what their names say (so the corpus keeps meaning
	// something if the layout moves): only the valid one replays.
	for name, img := range fuzzSeeds() {
		dev := pmem.New()
		dev.Store(fuzzRegion.Start, img)
		l, err := OpenLog(dev, fuzzRegion.Start, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := 0
		if name == "valid-one-entry" || name == "wild-used" || name == "wild-next" {
			want = 1 // a wild counter or next pointer is clamped or cut; the entry is intact
		}
		if got := l.Replay(true, nil); got != want {
			t.Fatalf("%s: replayed %d entries, want %d", name, got, want)
		}
	}
}
