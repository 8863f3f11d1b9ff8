package daemon

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc64"
	"log"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/ptypes"
	"puddles/internal/puddle"
	"puddles/internal/uid"
)

// u builds a recognisable UUID: 16 bytes counting up from b.
func u(b byte) (id uid.UUID) {
	for i := range id {
		id[i] = b + byte(i)
	}
	return id
}

// goldenRecs is one record of every kind and shape the daemon persists,
// with the exact bytes it encodes to. The hex is the on-media format:
// if a case here changes, metaVersion (and with it the journal magic
// and the chunk format byte) must change too.
var goldenRecs = []struct {
	name string
	rec  entRec
	hex  string
}{
	{"pool", putRec(recPool, "p", &PoolRec{
		Name: "p", UUID: u(0x10), Root: u(0x20), OwnerUID: 1000, OwnerGID: 100, Mode: 0o660,
		Puddles: []uid.UUID{u(0x20), u(0x30)},
	}), "01" + "0170" + "46" +
		"101112131415161718191a1b1c1d1e1f" + "202122232425262728292a2b2c2d2e2f" +
		"e807" + "64" + "b003" + "02" +
		"202122232425262728292a2b2c2d2e2f" + "303132333435363738393a3b3c3d3e3f"},
	{"pool/zero", putRec(recPool, "", &PoolRec{}),
		"01" + "00" + "24" + strings.Repeat("00", 32) + "00000000"},
	{"pool/tombstone", delRec(recPool, "gone"), "81" + "04676f6e65"},
	{"puddle", putRec(recPuddle, uuidKey(u(0x40)), &PuddleRec{
		UUID: u(0x40), Addr: 0x40_0000_0000, Size: 8192, Kind: 1, Pool: u(0x10),
	}), "02" + "10404142434445464748494a4b4c4d4e4f" + "19" +
		"808080808008" + "8040" + "01" + "101112131415161718191a1b1c1d1e1f"},
	{"puddle/zero", putRec(recPuddle, uuidKey(uid.Nil), &PuddleRec{}),
		"02" + "10" + strings.Repeat("00", 16) + "13" + "000000" + strings.Repeat("00", 16)},
	{"puddle/tombstone", delRec(recPuddle, uuidKey(u(0x40))), "82" + "10404142434445464748494a4b4c4d4e4f"},
	{"logspace", putRec(recLogSpace, uuidKey(u(0x50)), &LogSpaceRec{
		UUID: u(0x50), Addr: 0x1000, Creds: Creds{UID: 7, GID: 8}, Shards: 4,
	}), "03" + "10505152535455565758595a5b5c5d5e5f" + "05" + "8020" + "07" + "08" + "04"},
	{"logspace/shards0", putRec(recLogSpace, uuidKey(u(0x50)), &LogSpaceRec{UUID: u(0x50), Addr: 1}),
		"03" + "10505152535455565758595a5b5c5d5e5f" + "04" + "01000000"},
	{"logspace/tombstone", delRec(recLogSpace, uuidKey(u(0x50))), "83" + "10505152535455565758595a5b5c5d5e5f"},
	{"session", putRec(recSession, "42", &ImportSession{
		ID: 42, PoolName: "in", PoolUUID: u(0x60), RootUUID: u(0x70), Creds: Creds{UID: 1, GID: 2}, Mode: 0o600,
		Puddles: []ImportPuddle{{UUID: u(0x70), OldAddr: 1, Size: 2, Kind: 3, StagedAt: 4, NewAddr: 5, Mapped: true}},
	}), "04" + "023432" + "3e" + "02696e" +
		"606162636465666768696a6b6c6d6e6f" + "707172737475767778797a7b7c7d7e7f" +
		"01" + "02" + "8003" + "01" +
		"707172737475767778797a7b7c7d7e7f" + "0102030405" + "01"},
	{"session/zero", putRec(recSession, "0", &ImportSession{}),
		"04" + "0130" + "25" + "00" + strings.Repeat("00", 32) + "00000000"},
	{"session/tombstone", delRec(recSession, "42"), "84" + "023432"},
	{"types", putRec(recTypes, "", typeList{
		{ID: 0x0102030405060708, Name: "node", Size: 24, Ptrs: []ptypes.PtrField{{Offset: 8}, {Offset: 16}}},
		{ID: 1, Name: "", Size: 0},
	}), "05" + "00" + "1d" + "02" +
		"0807060504030201" + "046e6f6465" + "18" + "02" + "08" + "10" +
		"0100000000000000" + "00" + "00" + "00"},
	{"types/empty", putRec(recTypes, "", typeList(nil)), "05" + "00" + "01" + "00"},
	{"counters", putRec(recCounters, "", &counters{NextSession: 9, Recoveries: 2, LogsReplayed: 300, EntriesApplied: 70000, Imports: 1}),
		"06" + "00" + "08" + "09" + "02" + "ac02" + "f0a204" + "01"},
	{"counters/zero", putRec(recCounters, "", &counters{}), "06" + "00" + "05" + "0000000000"},
	{"link", linkRec("p", &PuddleRec{UUID: u(0x40)}), "07" + "0170" + "10" + "404142434445464748494a4b4c4d4e4f"},
	{"unlink", unlinkRec("p", &PuddleRec{UUID: u(0x40)}), "08" + "0170" + "10" + "404142434445464748494a4b4c4d4e4f"},
	{"migout", migOutRec(&MigOutRec{ID: u(0x80), Pool: "p", Target: "tcp://b:1", Phase: migCommitSent}),
		"09" + "10808182838485868788898a8b8c8d8e8f" + "0e" + "0170" + "097463703a2f2f623a31" + "02" + "00"},
	{"migout/zero", putRec(recMigOut, uuidKey(uid.Nil), &MigOutRec{}),
		"09" + "10" + strings.Repeat("00", 16) + "04" + "00000000"},
	{"migout/tombstone", delRec(recMigOut, uuidKey(u(0x80))), "89" + "10808182838485868788898a8b8c8d8e8f"},
	{"moved", putRec(recMoved, "p", &MovedRec{Pool: "p", Target: "tcp://b:1"}),
		"0a" + "0170" + "0a" + "097463703a2f2f623a31"},
	{"moved/tombstone", delRec(recMoved, "p"), "8a" + "0170"},
	{"migdone", putRec(recMigDone, uuidKey(u(0x80)), &MigDoneRec{ID: u(0x80), Pool: "p"}),
		"0b" + "10808182838485868788898a8b8c8d8e8f" + "02" + "0170"},
	{"migdone/tombstone", delRec(recMigDone, uuidKey(u(0x80))), "8b" + "10808182838485868788898a8b8c8d8e8f"},
}

// retiredRecs are records an older daemon wrote for warm standby, a
// mechanism since deleted: kinds 12 (standby copy) and 13 (replica
// obligation), and a migout record with its standby flag set. Each must
// be refused with ErrMetaFormat naming what it found — never skipped,
// and never mistaken for a torn batch.
var retiredRecs = []struct {
	name, hex, want string
}{
	{"standby", "0c" + "0170" + "6e" +
		"101112131415161718191a1b1c1d1e1f" + "202122232425262728292a2b2c2d2e2f" + "01" + "02" + "8003" +
		"01" + "202122232425262728292a2b2c2d2e2f" + "8040" + "8040" + "01" + "101112131415161718191a1b1c1d1e1f" +
		"01" + "8060" +
		"01" + "505152535455565758595a5b5c5d5e5f" + "8020" + "07" + "08" + "04" +
		"05" + "097463703a2f2f623a31", "retired kind 12"},
	{"standby/zero", "0c" + "00" + "28" + strings.Repeat("00", 32) + "000000" + "00" + "00" + "00" + "00" + "00", "retired kind 12"},
	{"standby/tombstone", "8c" + "0170", "retired kind 12"},
	{"replica", "0d" + "0170" + "0c" + "097463703a2f2f623a31" + "8101", "retired kind 13"},
	{"replica/tombstone", "8d" + "0170", "retired kind 13"},
	{"migout/standby", "09" + "10808182838485868788898a8b8c8d8e8f" + "0e" + "0170" + "097463703a2f2f623a31" + "02" + "01",
		"standby flag"},
}

// maximalPool is a pool record far past the one-byte body-length fast
// path of appendSized: 4096 members, a 3-byte length prefix.
func maximalPool() entRec {
	p := &PoolRec{Name: "big", UUID: u(1), Root: u(2), OwnerUID: math.MaxUint32, OwnerGID: math.MaxUint32, Mode: math.MaxUint32}
	for i := 0; i < 4096; i++ {
		id := u(byte(i))
		id[15] = byte(i >> 8)
		p.Puddles = append(p.Puddles, id)
	}
	return putRec(recPool, p.Name, p)
}

// TestCodecGolden pins the on-media layout of every record kind, that
// each decodes back to the value it was built from, and that every
// retired record is refused as a format this daemon does not read.
func TestCodecGolden(t *testing.T) {
	for _, g := range goldenRecs {
		t.Run(g.name, func(t *testing.T) {
			got := hex.EncodeToString(appendRec(nil, &g.rec))
			if got != g.hex {
				t.Fatalf("layout drifted (bump metaVersion if this is intended)\n got %s\nwant %s", got, g.hex)
			}
			raw, _ := hex.DecodeString(g.hex)
			recs, err := decodeBatch(raw, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 || !reflect.DeepEqual(recs[0], g.rec) {
				t.Fatalf("round trip\n got %+v\nwant %+v", recs, g.rec)
			}
		})
	}
	for _, r := range retiredRecs {
		t.Run(r.name, func(t *testing.T) {
			raw, _ := hex.DecodeString(r.hex)
			recs, err := decodeBatch(raw, nil)
			if !errors.Is(err, ErrMetaFormat) || !strings.Contains(err.Error(), r.want) {
				t.Fatalf("err = %v, want ErrMetaFormat naming %q", err, r.want)
			}
			if recs != nil {
				t.Fatalf("refused batch still returned %d records", len(recs))
			}
		})
	}
}

// TestCodecBatchRoundTrip: a batch of every golden record plus a
// maximal pool survives encode → decode, through a reused record slice.
func TestCodecBatchRoundTrip(t *testing.T) {
	var want []entRec
	for _, g := range goldenRecs {
		want = append(want, g.rec)
	}
	want = append(want, maximalPool())
	payload := encodeBatch(nil, want)
	scratch := make([]entRec, 3, 64) // stale contents must not leak through
	got, err := decodeBatch(payload, scratch[:0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch round trip differs: got %d records, want %d", len(got), len(want))
	}
	if again := encodeBatch(nil, got); !bytes.Equal(again, payload) {
		t.Fatal("re-encoding the decoded batch gave different bytes")
	}
}

// TestCodecRejects: what the decoder must refuse — and that a refusal
// returns no records at all, however many decoded before the bad one.
func TestCodecRejects(t *testing.T) {
	good := appendRec(nil, &goldenRecs[0].rec) // a pool
	puddleRec := appendRec(nil, &goldenRecs[3].rec)
	mut := func(b []byte, at int, v byte) []byte {
		c := append([]byte(nil), b...)
		c[at] = v
		return c
	}
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"empty", nil, errEmpty},
		{"unknown kind", []byte{0x0e, 0x00, 0x00}, errKind},
		{"kind zero", []byte{0x00, 0x00, 0x00}, errKind},
		{"tombstoned link", []byte{0x87, 0x01, 'p'}, errKey},
		{"tombstoned counters", []byte{0x86, 0x00}, errKey},
		{"short uuid key", []byte{0x82, 0x03, 1, 2, 3}, errKey},
		{"non-decimal session key", []byte{0x84, 0x01, 'x'}, errKey},
		{"keyed counters", append([]byte{0x06, 0x01, 'k', 0x05}, make([]byte, 5)...), errKey},
		{"key length over payload", []byte{0x81, 0x7f, 'p'}, errOverlong},
		{"body length over payload", mut(good, 3, 0x7f), errOverlong},
		{"body length short of body", mut(puddleRec, 18, 0x18), errTruncated},
		{"body longer than its fields", append(mut(puddleRec, 18, 0x1a), 0), errTrailing},
		{"padded varint", []byte{0x81, 0x81, 0x00, 'p'}, errVarint},
		{"varint overflow", append([]byte{0x81}, bytes.Repeat([]byte{0xff}, 11)...), errVarint},
		{"flag not 0/1", func() []byte {
			b := appendRec(nil, &goldenRecs[18].rec) // migout: last byte is the standby flag
			return mut(b, len(b)-1, 2)
		}(), errRange},
		{"u32 out of range", func() []byte {
			ls := appendRec(nil, &entRec{Kind: recLogSpace, Key: uuidKey(u(1)), Val: &LogSpaceRec{}})
			body := []byte{0x01, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x1f} // shards = 2^33-1
			return append(append(ls[:18], byte(len(body))), body...)
		}(), errRange},
		{"member count over payload", func() []byte {
			p := appendRec(nil, &entRec{Kind: recPool, Key: "p", Val: &PoolRec{}})
			return mut(p, len(p)-1, 0x7f) // claims 127 members, carries none
		}(), errOverlong},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			payload := append(append([]byte(nil), good...), c.payload...)
			if c.payload == nil {
				payload = nil
			}
			recs, err := decodeBatch(payload, nil)
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if recs != nil {
				t.Fatalf("refused batch still returned %d records", len(recs))
			}
		})
	}
	// Every strict prefix of a single record is a truncation.
	for _, g := range goldenRecs {
		raw, _ := hex.DecodeString(g.hex)
		for n := 1; n < len(raw); n++ {
			if _, err := decodeBatch(raw[:n], nil); err == nil {
				t.Fatalf("%s truncated to %d of %d bytes decoded", g.name, n, len(raw))
			}
		}
	}
}

// goldenManifests pins the OpMigrateBegin manifest daemons exchange
// inside wire frames. It is part of the wire format: a change here bumps
// proto.ProtocolVersion.
var goldenManifests = []struct {
	name string
	man  MigManifest
	hex  string
}{
	{"begin", MigManifest{
		ID: u(0x70), Pool: "p", PoolUUID: u(0x10), Root: u(0x20), OwnerUID: 1000, OwnerGID: 100, Mode: 0o660,
		Types:     []ptypes.TypeInfo{{ID: 0x0102030405060708, Name: "node", Size: 24, Ptrs: []ptypes.PtrField{{Offset: 8}}}},
		Puddles:   []MigPuddle{{UUID: u(0x20), Addr: 0x40_0000_0000, Size: 8192, Kind: 1}},
		LogSpaces: []MigLogSpace{{UUID: u(0x50), Creds: Creds{UID: 7, GID: 8}, Shards: 4}},
	}, "707172737475767778797a7b7c7d7e7f" + "0170" +
		"101112131415161718191a1b1c1d1e1f" + "202122232425262728292a2b2c2d2e2f" + "e807" + "64" + "b003" +
		"01" + "0807060504030201" + "046e6f6465" + "18" + "01" + "08" +
		"01" + "202122232425262728292a2b2c2d2e2f" + "808080808008" + "8040" + "01" +
		"01" + "505152535455565758595a5b5c5d5e5f" + "07" + "08" + "04"},
	{"zero", MigManifest{}, strings.Repeat("00", 16) + "00" + strings.Repeat("00", 32) + "000000" + "00" + "00" + "00"},
}

// TestManifestCodec: golden bytes, round trip, and the strictness of the
// record decoder (every strict prefix, trailing bytes, a padded varint, a
// count the blob cannot hold).
func TestManifestCodec(t *testing.T) {
	for _, g := range goldenManifests {
		blob := g.man.encode()
		if got := hex.EncodeToString(blob); got != g.hex {
			t.Errorf("%s:\n got %s\nwant %s", g.name, got, g.hex)
			continue
		}
		back, err := decodeManifest(blob)
		if err != nil || !reflect.DeepEqual(back, &g.man) {
			t.Errorf("%s: decoded %+v, %v", g.name, back, err)
		}
		for n := 0; n < len(blob); n++ {
			if _, err := decodeManifest(blob[:n]); err == nil {
				t.Errorf("%s truncated to %d of %d bytes decoded", g.name, n, len(blob))
			}
		}
		if _, err := decodeManifest(append(blob[:len(blob):len(blob)], 0)); !errors.Is(err, errTrailing) {
			t.Errorf("%s with a trailing byte: %v", g.name, err)
		}
	}
	zero := goldenManifests[1].man.encode()
	mut := func(at int, v ...byte) []byte {
		return append(append(append([]byte(nil), zero[:at]...), v...), zero[at+1:]...)
	}
	for name, c := range map[string]struct {
		blob []byte
		want error
	}{
		"padded varint":               {mut(49, 0x80, 0x00), errVarint},
		"uid past uint32":             {mut(49, 0xff, 0xff, 0xff, 0xff, 0x1f), errRange},
		"puddle count over the blob":  {mut(53, 0x7f), errOverlong},
		"log-space count over it too": {mut(54, 0x02), errOverlong},
	} {
		if _, err := decodeManifest(c.blob); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", name, err, c.want)
		}
	}
}

// FuzzMigManifest fuzzes the decoder of the manifest a peer daemon
// sends with OpMigrateBegin: it must never panic, must allocate no more
// than a small multiple of the blob, and an accepted blob must re-encode
// to exactly its bytes.
func FuzzMigManifest(f *testing.F) {
	for _, g := range goldenManifests {
		f.Add(g.man.encode())
	}
	// A version-2 manifest: the begin golden plus its source URL.
	f.Add(appendStr(goldenManifests[0].man.encode(), "tcp://a:1"))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		man, err := decodeManifest(blob)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, 16*uint64(len(blob))+64<<10; n > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(blob), n, limit)
		}
		if err != nil {
			return
		}
		if again := man.encode(); !bytes.Equal(again, blob) {
			t.Fatalf("accepted manifest re-encodes differently\n  in %x\n out %x", blob, again)
		}
	})
}

// TestCodecBoundedAllocation: a count or length the payload cannot back
// is refused before anything is allocated for it.
func TestCodecBoundedAllocation(t *testing.T) {
	// A pool record claiming 2^40 members in a 41-byte body.
	body := append(make([]byte, 32), 0, 0, 0)
	body = append(body, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)
	payload := append([]byte{byte(recPool), 1, 'p', byte(len(body))}, body...)
	if _, err := decodeBatch(payload, nil); !errors.Is(err, errOverlong) {
		t.Fatalf("err = %v, want %v", err, errOverlong)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		decodeBatch(payload, nil)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 1024 {
		t.Fatalf("refusing a %d-byte payload allocated %d bytes", len(payload), per)
	}
}

// checkDecoded is the fuzz oracle for one payload: the decoder either
// refuses it whole or returns records that re-encode to the same bytes
// — the encoding is canonical — which also bounds what a payload can
// make the decoder allocate: every decoded element is backed by at
// least one input byte.
func checkDecoded(t *testing.T, payload []byte) ([]entRec, error) {
	t.Helper()
	recs, err := decodeBatch(payload, nil)
	if err != nil {
		if recs != nil {
			t.Fatalf("refused batch still returned %d records", len(recs))
		}
		return nil, err
	}
	if len(recs) == 0 || len(recs) > len(payload) {
		t.Fatalf("%d records out of %d bytes", len(recs), len(payload))
	}
	if again := encodeBatch(nil, recs); !bytes.Equal(again, payload) {
		t.Fatalf("decoded batch re-encodes differently\n  in %x\n out %x", payload, again)
	}
	return recs, nil
}

func fuzzSeeds(add func(payload []byte)) {
	var all []entRec
	for _, g := range goldenRecs {
		raw, _ := hex.DecodeString(g.hex)
		add(raw)
		all = append(all, g.rec)
	}
	add(encodeBatch(nil, all))
	for _, r := range retiredRecs {
		raw, _ := hex.DecodeString(r.hex)
		add(raw)
	}
	big := maximalPool()
	add(appendRec(nil, &big))
	add([]byte{0x81, 0x7f, 'p'})
	add([]byte{0x81, 0x81, 0x00, 'p'})
}

// FuzzJournalBatch fuzzes the journal entry payload decoder: it must
// never panic and must satisfy checkDecoded on every input.
func FuzzJournalBatch(f *testing.F) {
	fuzzSeeds(func(p []byte) { f.Add(p) })
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecoded(t, payload)
	})
}

// FuzzCkptChunk fuzzes the checkpoint arena reader end to end: the
// input is planted as the CRC-valid opening chunk of a chain, followed
// by a well-formed commit, and scanHalf must compose exactly what the
// payload decodes to, end the chain at an undecodable chunk (counting
// it), or refuse a foreign format byte or a retired record with
// ErrMetaFormat.
func FuzzCkptChunk(f *testing.F) {
	fuzzSeeds(func(p []byte) {
		f.Add(uint8(ckFull), append([]byte{metaFormat}, p...))
		f.Add(uint8(ckFull), p) // whatever p starts with as the format byte
	})
	f.Add(uint8(ckRecs), []byte{metaFormat, 0x86, 0x00})
	f.Add(uint8(ckCommit), []byte{metaFormat, 1})
	f.Add(uint8(ckJump), []byte{metaFormat, 0, 1, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(ckSFull), []byte{metaFormat, 0x81, 0x01, 'p'})
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		if len(payload) == 0 || len(payload) > 8<<10 {
			return
		}
		d := &Daemon{dev: pmem.New(), ckptHalf: 32 << 10}
		const seq, gen = 7, 3
		off, err := d.writeChunk(0, 0, uint32(kind), seq, 0, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.writeChunk(0, off, ckCommit, seq, gen, []byte{metaFormat, 1}); err != nil {
			t.Fatal(err)
		}
		sr, ok, err := d.scanHalf(0)
		switch {
		case kind < uint8(ckFull) || kind > uint8(ckJump):
			// Not a head-half chunk kind: the scan stops before reading it.
			if ok || err != nil {
				t.Fatalf("kind %d: ok=%v err=%v, want an empty half", kind, ok, err)
			}
		case payload[0] != metaFormat:
			if !errors.Is(err, ErrMetaFormat) {
				t.Fatalf("format byte %#x: err = %v, want ErrMetaFormat", payload[0], err)
			}
		case kind != uint8(ckFull):
			// Records, a commit or a jump with no chain open: not a chain.
			if ok || err != nil {
				t.Fatalf("kind %d first: ok=%v err=%v, want an empty half", kind, ok, err)
			}
		default:
			recs, derr := checkDecoded(t, payload[1:])
			if errors.Is(derr, ErrMetaFormat) {
				if ok || !errors.Is(err, ErrMetaFormat) {
					t.Fatalf("retired record (%v): ok=%v err=%v, want ErrMetaFormat", derr, ok, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("scanHalf: %v", err)
			}
			if derr != nil {
				if ok || d.jDecodeErrs.Load() != 1 {
					t.Fatalf("undecodable chunk (%v): ok=%v, %d decode errors counted", derr, ok, d.jDecodeErrs.Load())
				}
				return
			}
			want := newState()
			applyBatchTo(want, recs)
			want.Seq = seq
			if !ok || sr.gen != gen || !reflect.DeepEqual(sr.st, want) {
				t.Fatalf("composed state differs from the decoded batch: ok=%v gen=%d", ok, sr.gen)
			}
		}
	})
}

// plantEntry appends a CRC-valid journal entry with the given payload
// at the daemon's journal tail, exactly as persistGroup would have.
func plantEntry(d *Daemon, payload []byte) {
	ent := d.jBase + pmem.Addr(d.jTail)
	d.seq++
	d.dev.Store(ent+entHdrSize, payload)
	d.dev.StoreU32(ent, uint32(len(payload)))
	d.dev.StoreU32(ent+4, 0)
	d.dev.StoreU64(ent+8, crc64.Checksum(payload, crcTable))
	d.dev.StoreU64(ent+16, d.seq)
	term := ent + entHdrSize + pmem.Addr(len(payload))
	d.dev.StoreU64(term, 0)
	d.dev.StoreU64(term+8, 0)
	d.dev.Persist(ent, 2*entHdrSize+len(payload))
	d.jTail += entHdrSize + uint64(len(payload))
}

// TestReplayBatchAtomic: a CRC-valid batch with one undecodable record
// must leave the registry exactly as it was before that batch — not
// half-applied, as the record-by-record gob replay did — end the replay
// there, and be counted and logged with region, offset and seq.
func TestReplayBatchAtomic(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "before"})
	c.Close()
	// {good pool "half", good puddle, puddle with a corrupt body}, then a
	// fully good batch after it that replay must not reach.
	pool := &PoolRec{Name: "half", UUID: u(0x10), Root: u(0x20), Puddles: []uid.UUID{u(0x20)}}
	root := &PuddleRec{UUID: u(0x20), Addr: 0x7000_0000_0000, Size: puddle.MinSize, Kind: 1, Pool: u(0x10)}
	batch := encodeBatch(nil, []entRec{pool.rec(), putRec(recPuddle, uuidKey(root.UUID), root)})
	bad := appendRec(nil, &entRec{Kind: recPuddle, Key: uuidKey(u(0x30)), Val: &PuddleRec{Pool: u(0x10)}})
	bad[len(bad)-17] = 0x80 // the kind varint now runs into the pool UUID
	badOff, badSeq := d.jTail, d.seq+1
	plantEntry(d, append(batch, bad...))
	after := &PoolRec{Name: "after", UUID: u(0x50), Root: u(0x60)}
	plantEntry(d, encodeBatch(nil, []entRec{after.rec()}))

	var logged bytes.Buffer
	d2, err := New(dev, WithLogger(log.New(&logged, "", 0)))
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	st := d2.Stats()
	if st.Pools != 1 || st.Puddles != 1 {
		t.Fatalf("registry after an undecodable batch: %d pools, %d puddles, want exactly \"before\" (1, 1)", st.Pools, st.Puddles)
	}
	if d2.poolByName("before") == nil || d2.poolByName("half") != nil || d2.poolByName("after") != nil {
		t.Fatal("replay applied part of the bad batch, or went past it")
	}
	if st.JournalDecodeErrors != 1 || st.JournalReplayed != 1 {
		t.Fatalf("JournalDecodeErrors = %d, JournalReplayed = %d, want 1 and 1", st.JournalDecodeErrors, st.JournalReplayed)
	}
	want := fmt.Sprintf("journal at %#x offset %d seq %d does not decode", uint64(pmem.MetaJournal0), badOff, badSeq)
	if !strings.Contains(logged.String(), want) {
		t.Fatalf("boot log lacks %q:\n%s", want, logged.String())
	}
	if err := d2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestOldFormatRefused: an image of the gob generation — a journal
// region with the PJRNL1 magic, or a CRC-valid checkpoint chunk whose
// payload does not open with the format byte — must fail the boot with
// ErrMetaFormat naming what was found, not be skipped as if empty.
func TestOldFormatRefused(t *testing.T) {
	image := func(t *testing.T) *pmem.Device {
		dev := pmem.New()
		d, err := New(dev)
		if err != nil {
			t.Fatal(err)
		}
		c := d.SelfConn()
		rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "acked"})
		c.Close()
		return dev
	}
	t.Run("journal magic", func(t *testing.T) {
		dev := image(t)
		dev.StoreU64(pmem.MetaJournal0+jrnOffMagic, journalStem|'1'<<40)
		dev.Persist(pmem.MetaJournal0, 8)
		_, err := New(dev)
		if !errors.Is(err, ErrMetaFormat) || !strings.Contains(err.Error(), "PJRNL1") {
			t.Fatalf("boot over a PJRNL1 journal = %v, want ErrMetaFormat naming the magic", err)
		}
	})
	t.Run("chunk format byte", func(t *testing.T) {
		dev := image(t)
		// Overwrite the live chain's first chunk with a CRC-valid one that
		// starts the way a gob stream does (a small length byte).
		d := &Daemon{dev: dev, ckptHalf: pmem.MetaCkptSize / 2}
		for half := 0; half < 2; half++ {
			if _, err := d.writeChunk(half, 0, ckFull, 1, 0, []byte{0x2c, 0xff, 0x81, 0x03, 0x01}); err != nil {
				t.Fatal(err)
			}
		}
		_, err := New(dev)
		if !errors.Is(err, ErrMetaFormat) || !strings.Contains(err.Error(), "0x2c") {
			t.Fatalf("boot over a gob chunk = %v, want ErrMetaFormat naming the byte", err)
		}
	})
}

// TestRetiredFormatRefused: a CRC-valid journal batch or checkpoint
// chunk holding a retired warm-standby record must fail the boot with
// ErrMetaFormat naming what it found. Replay must not end quietly at it,
// as it does at an undecodable batch: that would drop every entry after
// it. The refused boot writes no metadata byte.
func TestRetiredFormatRefused(t *testing.T) {
	retired := func(name string) []byte {
		for _, r := range retiredRecs {
			if r.name == name {
				raw, _ := hex.DecodeString(r.hex)
				return raw
			}
		}
		t.Fatalf("no retired record %q", name)
		return nil
	}
	for _, c := range []struct {
		name, rec, want string
		ckpt            bool
	}{
		{"journal kind 12", "standby", "retired kind 12", false},
		{"journal kind 13", "replica", "retired kind 13", false},
		{"journal migout standby", "migout/standby", "standby flag", false},
		{"checkpoint kind 12", "standby", "retired kind 12", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := pmem.New()
			d, err := New(dev)
			if err != nil {
				t.Fatal(err)
			}
			conn := d.SelfConn()
			rt(t, conn, &proto.Request{Op: proto.OpCreatePool, Name: "acked"})
			conn.Close()
			after := &PoolRec{Name: "after", UUID: u(0x50), Root: u(0x60)}
			payload := append(encodeBatch(nil, []entRec{after.rec()}), retired(c.rec)...)
			if c.ckpt {
				d := &Daemon{dev: dev, ckptHalf: pmem.MetaCkptSize / 2}
				for half := 0; half < 2; half++ {
					off, err := d.writeChunk(half, 0, ckFull, 1, 0, append([]byte{metaFormat}, payload...))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := d.writeChunk(half, off, ckCommit, 1, 1, []byte{metaFormat, 1}); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				plantEntry(d, payload)
				plantEntry(d, encodeBatch(nil, []entRec{(&PoolRec{Name: "later", UUID: u(0x70)}).rec()}))
			}

			regions := []pmem.Addr{metaBase, pmem.MetaJournal0, pmem.MetaJournal1,
				pmem.MetaCkptBase, pmem.MetaCkptBase + pmem.Addr(pmem.MetaCkptSize/2)}
			snap := func() []byte {
				var out []byte
				for _, a := range regions {
					b := make([]byte, 64<<10)
					dev.Load(a, b)
					out = append(out, b...)
				}
				return out
			}
			before, flushes := snap(), dev.Stats().Flushes
			d2, err := New(dev)
			if err == nil {
				d2.Shutdown()
				t.Fatal("an image holding a retired record booted")
			}
			if !errors.Is(err, ErrMetaFormat) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("boot = %v, want ErrMetaFormat naming %q", err, c.want)
			}
			if !bytes.Equal(snap(), before) || dev.Stats().Flushes != flushes {
				t.Fatal("refused boot wrote to the metadata region")
			}
		})
	}
}

// TestV1SlotImageRefused: an image of the first metadata format — a
// superblock and a CRC-valid whole-state gob slot at the start of what
// is now the reserved hole, no journal, no arena — must fail the boot
// without formatting the image or touching any metadata byte.
func TestV1SlotImageRefused(t *testing.T) {
	dev := pmem.New()
	dev.StoreU64(metaBase+sbOffMag, sbMagic)
	dev.StoreU64(metaBase+sbOffDirt, 1)
	// Slot header: seq | payload length | payload CRC | pad; payload at +32.
	slot := pmem.MetaReserved
	st := newState()
	st.Seq = 7
	st.Pools["old"] = &PoolRec{Name: "old", UUID: u(1), Mode: 0o660}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	dev.Store(slot+32, payload)
	dev.StoreU64(slot, 7)
	dev.StoreU64(slot+8, uint64(len(payload)))
	dev.StoreU64(slot+16, crc64.Checksum(payload, crcTable))
	dev.Persist(metaBase, int(slot-metaBase)+32+len(payload))

	regions := []pmem.Addr{metaBase, slot, pmem.MetaJournal0, pmem.MetaJournal1,
		pmem.MetaCkptBase, pmem.MetaCkptBase + pmem.Addr(pmem.MetaCkptSize/2)}
	snap := func() []byte {
		var out []byte
		for _, a := range regions {
			b := make([]byte, 128)
			dev.Load(a, b)
			out = append(out, b...)
		}
		return out
	}
	before := snap()
	d, err := New(dev)
	if err == nil {
		d.Shutdown()
		t.Fatal("a v1 slot image booted")
	}
	if !strings.Contains(err.Error(), "no valid metadata checkpoint") {
		t.Fatalf("boot over a v1 slot image = %v, want the missing-checkpoint refusal", err)
	}
	if !bytes.Equal(snap(), before) {
		t.Fatal("refused boot wrote to the metadata region")
	}
}

// TestJournalReplayCost gates boot-time journal replay on counts, not
// time: 20 000 grant/free pairs live only in the journal, and
// rebooting over them may cost at most 8 Go allocations per entry (the
// gob replay cost ≈ 375) — the whole boot is charged to the entries, so
// the bound is conservative. The journal itself must have shrunk to at
// most half of the gob generation's 574 bytes per grant+free pair.
func TestJournalReplayCost(t *testing.T) {
	const pairs = 20000
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	pool := rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "churn"})
	j0 := d.Stats().JournalBytes
	for i := 0; i < pairs; i++ {
		pu := rt(t, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize})
		rt(t, c, &proto.Request{Op: proto.OpFreePuddle, UUID: pu.UUID})
	}
	st := d.Stats()
	if st.Checkpoints != 1 {
		t.Fatalf("%d checkpoints: the churn no longer fits one journal region, shrink the test", st.Checkpoints)
	}
	if perPair := float64(st.JournalBytes-j0) / pairs; perPair > 574/2 {
		t.Fatalf("journal grew %.1f bytes per grant+free pair, want ≤ %d", perPair, 574/2)
	}
	c.Close() // killed: no shutdown checkpoint, everything above is journal-only

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d2, err := New(dev)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	st2 := d2.Stats()
	if st2.JournalReplayed != 2*pairs+1 {
		t.Fatalf("replayed %d journal entries, want %d", st2.JournalReplayed, 2*pairs+1)
	}
	if st2.BootReplayNs == 0 || st2.BootLoadNs == 0 {
		t.Fatalf("boot timings not surfaced: load %d ns, replay %d ns", st2.BootLoadNs, st2.BootReplayNs)
	}
	perEntry := float64(after.Mallocs-before.Mallocs) / float64(st2.JournalReplayed)
	t.Logf("boot: %.2f allocations per replayed entry; load %v µs, replay %v µs",
		perEntry, st2.BootLoadNs/1e3, st2.BootReplayNs/1e3)
	if perEntry > 8 {
		t.Fatalf("boot cost %.1f allocations per replayed journal entry, want ≤ 8", perEntry)
	}
	if st2.Pools != 1 || st2.Puddles != 1 {
		t.Fatalf("after replay: %d pools, %d puddles, want 1 and 1", st2.Pools, st2.Puddles)
	}
	if err := d2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
