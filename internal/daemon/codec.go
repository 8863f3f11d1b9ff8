// Metadata record codec: the one hand-written binary format of every
// byte the daemon persists in the journal regions and the checkpoint
// arena. No reflection, no encoder or decoder objects: encoders append
// to a byte slice, decoders consume the CRC-checked payload in place.
//
//	batch  := record*                 to the end of the payload; never empty
//	record := tag:u8 key:bytes [body:bytes]
//	          tag = recKind | recTomb; a tombstone carries no body
//	bytes  := len:uv len×u8
//	uv     := unsigned LEB128 (encoding/binary uvarint), minimal length only
//	uuid   := 16×u8
//
// A journal entry's payload is one batch. A checkpoint chunk's payload
// is metaFormat:u8 followed by a batch (ckFull, ckRecs) or by full:u8
// (ckCommit; always 1 — see ckpt.go for the retired kinds). The per-kind bodies
// are listed at their appendBody methods below; a body never repeats
// what the key already says (a puddle's UUID, a pool's name).
//
// Versioning: the format has ONE version number, carried by the journal
// region magic ("PJRNL2") and by the first payload byte of every chunk
// (0x80|2 — a byte no gob stream starts with, so a chunk written by the
// gob generation cannot pass for this one). Any change to a body and
// any new record kind bumps both. A daemon reads exactly one version
// and refuses every other with ErrMetaFormat; there is no dual reader.
// A retired record kind needs no bump: its number stays reserved and a
// record of it is refused the same way (retiredKinds).
//
// The encoding is canonical — varints are minimal, flags are 0 or 1,
// every length is checked against the bytes left and every body must be
// consumed exactly — so a payload that decodes re-encodes to the same
// bytes, which is what the fuzz targets hold it to.
package daemon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"

	"puddles/internal/ptypes"
	"puddles/internal/uid"
)

const (
	metaVersion = 2
	metaFormat  = 0x80 | metaVersion // first payload byte of every checkpoint chunk

	recTomb = 0x80 // tag bit: tombstone
)

// ErrMetaFormat is returned by New for an image whose journal or
// checkpoint arena was written in a metadata format this daemon does
// not read. Skipping such a region would silently drop acknowledged
// metadata, so the boot is refused instead.
var ErrMetaFormat = errors.New("daemon: unsupported metadata format")

// Decode failures. They are static so a hostile payload costs nothing
// to reject; decodeBatch adds which record failed.
var (
	errTruncated = errors.New("truncated")
	errOverlong  = errors.New("length prefix exceeds payload")
	errVarint    = errors.New("malformed varint")
	errRange     = errors.New("value out of range")
	errTrailing  = errors.New("trailing bytes")
	errKind      = errors.New("unknown record kind")
	errKey       = errors.New("malformed key")
	errEmpty     = errors.New("empty batch")
	// errStandbyFlag refuses a migout record written with the retired
	// warm-standby flag set.
	errStandbyFlag = fmt.Errorf("%w: migout record with the retired standby flag set", ErrMetaFormat)
)

// retiredKinds names the record kinds an older daemon wrote and this one
// refuses with ErrMetaFormat rather than skips: replay must never drop
// the batches behind one.
var retiredKinds = map[recKind]string{
	recRetiredStandby: "standby copy",
	recRetiredReplica: "replica obligation",
}

// recValue is an entity value carried by an entRec: it appends its
// body (see the package comment) to b.
type recValue interface {
	appendBody(b []byte) []byte
}

// keyShape is what a record kind's key must look like; zero is no kind.
type keyShape uint8

const (
	keyNone keyShape = iota + 1 // singleton: empty key
	keyName                     // pool name
	keyUUID                     // raw 16-byte UUID
	keyID                       // decimal import-session id
)

// recKinds gives every record kind's key shape and whether it may be
// tombstoned; a zero entry is an unknown kind.
var recKinds = [...]struct {
	key  keyShape
	tomb bool
}{
	recPool:       {keyName, true},
	recPuddle:     {keyUUID, true},
	recLogSpace:   {keyUUID, true},
	recSession:    {keyID, true},
	recTypes:      {keyNone, false},
	recCounters:   {keyNone, false},
	recPoolLink:   {keyName, false},
	recPoolUnlink: {keyName, false},
	recMigOut:     {keyUUID, true},
	recMoved:      {keyName, true},
	recMigDone:    {keyUUID, true},
}

// --- encode helpers ---

func uvs(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFlag(b []byte, f bool) []byte {
	if f {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendSized appends v's body behind its uvarint length. The width of
// that prefix is not known until the body is written: one byte is
// reserved — enough for every hot-path record — and a longer body
// shifts right to make room.
func appendSized(b []byte, v recValue) []byte {
	at := len(b)
	b = v.appendBody(append(b, 0))
	n := len(b) - at - 1
	if n < 0x80 {
		b[at] = byte(n)
		return b
	}
	var pre [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(pre[:], uint64(n))
	b = append(b, pre[:w-1]...)
	copy(b[at+w:], b[at+1:at+1+n])
	copy(b[at:], pre[:w])
	return b
}

// appendRec appends one record.
func appendRec(b []byte, r *entRec) []byte {
	if r.Del {
		return appendStr(append(b, byte(r.Kind)|recTomb), r.Key)
	}
	return appendSized(appendStr(append(b, byte(r.Kind)), r.Key), r.Val)
}

// encodeBatch appends recs as one batch.
func encodeBatch(b []byte, recs []entRec) []byte {
	for i := range recs {
		b = appendRec(b, &recs[i])
	}
	return b
}

// --- decode helpers ---

// dec consumes a payload front to back. The first malformed field
// latches err and empties the input, so a decoder reads straight
// through and checks once at the end.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *dec) take(n int) []byte {
	if n > len(d.b) {
		d.fail(errTruncated)
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *dec) u8() byte {
	if v := d.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (d *dec) flag() bool {
	v := d.u8()
	if v > 1 {
		d.fail(errRange)
	}
	return v == 1
}

func (d *dec) uv() uint64 {
	v, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.fail(errTruncated)
		return 0
	case n < 0 || (n > 1 && d.b[n-1] == 0):
		d.fail(errVarint) // overflows 64 bits, or padded with a zero group
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) u32() uint32 {
	v := d.uv()
	if v > math.MaxUint32 {
		d.fail(errRange)
		return 0
	}
	return uint32(v)
}

func (d *dec) u64le() uint64 {
	if v := d.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (d *dec) uuid() (u uid.UUID) {
	copy(u[:], d.take(len(u)))
	return u
}

// bytes returns the next length-prefixed field, aliasing the payload.
func (d *dec) bytes() []byte {
	n := d.uv()
	if n > uint64(len(d.b)) {
		d.fail(errOverlong)
		return nil
	}
	return d.take(int(n))
}

func (d *dec) str() string { return string(d.bytes()) }

// count reads an element count and bounds it by the bytes left: every
// element takes at least min bytes, so a count the payload cannot hold
// is refused before anything is allocated for it.
func (d *dec) count(min int) int {
	n := d.uv()
	if n > uint64(len(d.b)/min) {
		d.fail(errOverlong)
		return 0
	}
	return int(n)
}

// decodeBatch decodes every record of payload, appending to recs
// (callers replaying many entries pass the previous result resliced to
// zero). It is all or nothing: on error no record is returned, so a
// batch is never half-applied. Decoded records alias nothing in payload.
func decodeBatch(payload []byte, recs []entRec) ([]entRec, error) {
	if len(payload) == 0 {
		return nil, errEmpty
	}
	d := dec{b: payload}
	for len(d.b) > 0 {
		tag := d.u8()
		r := entRec{Kind: recKind(tag &^ recTomb), Del: tag&recTomb != 0}
		if int(r.Kind) >= len(recKinds) || recKinds[r.Kind].key == 0 {
			if what, ok := retiredKinds[r.Kind]; ok {
				return nil, fmt.Errorf("record %d: %w: retired kind %d (%s)", len(recs), ErrMetaFormat, r.Kind, what)
			}
			return nil, fmt.Errorf("record %d: %w %d", len(recs), errKind, r.Kind)
		}
		r.Key = d.str()
		if d.err == nil && (!keyOK(recKinds[r.Kind].key, r.Key) || (r.Del && !recKinds[r.Kind].tomb)) {
			d.fail(errKey)
		}
		if !r.Del {
			if body := d.bytes(); d.err == nil {
				r.Val, d.err = decodeBody(r.Kind, r.Key, body)
			}
		}
		if d.err != nil {
			return nil, fmt.Errorf("record %d (kind %d): %w", len(recs), r.Kind, d.err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

func keyOK(shape keyShape, key string) bool {
	switch shape {
	case keyNone:
		return key == ""
	case keyUUID:
		return len(key) == len(uid.UUID{})
	case keyID:
		_, err := strconv.ParseUint(key, 10, 64)
		return err == nil
	}
	return true
}

// decodeBody decodes one record body, which must be consumed exactly.
func decodeBody(kind recKind, key string, body []byte) (recValue, error) {
	d := dec{b: body}
	var v recValue
	switch kind {
	case recPool:
		v = d.pool(key)
	case recPuddle:
		p := d.puddle(keyUUIDOf(key))
		v = &p
	case recLogSpace:
		ls := d.logSpace(keyUUIDOf(key))
		v = &ls
	case recSession:
		v = d.session(key)
	case recTypes:
		v = d.types()
	case recCounters:
		v = &counters{d.uv(), d.uv(), d.uv(), d.uv(), d.uv()}
	case recPoolLink, recPoolUnlink:
		m := memberRef(d.uuid())
		v = &m
	case recMigOut:
		v = &MigOutRec{ID: keyUUIDOf(key), Pool: d.str(), Target: d.str(), Phase: d.u32()}
		if d.flag() {
			d.fail(errStandbyFlag)
		}
	case recMoved:
		v = &MovedRec{Pool: key, Target: d.str()}
	case recMigDone:
		v = &MigDoneRec{ID: keyUUIDOf(key), Pool: d.str()}
	}
	if d.err == nil && len(d.b) > 0 {
		d.err = errTrailing
	}
	if d.err != nil {
		return nil, d.err
	}
	return v, nil
}

// --- per-kind bodies: one appendBody / decode pair each ---

// pool: uuid root:uuid ownerUID:uv ownerGID:uv mode:uv n:uv n×member:uuid
func (p *PoolRec) appendBody(b []byte) []byte {
	b = append(append(b, p.UUID[:]...), p.Root[:]...)
	b = uvs(b, uint64(p.OwnerUID), uint64(p.OwnerGID), uint64(p.Mode), uint64(len(p.Puddles)))
	for i := range p.Puddles {
		b = append(b, p.Puddles[i][:]...)
	}
	return b
}

func (d *dec) pool(name string) *PoolRec {
	p := &PoolRec{Name: name, UUID: d.uuid(), Root: d.uuid(), OwnerUID: d.u32(), OwnerGID: d.u32(), Mode: d.u32()}
	if n := d.count(len(uid.UUID{})); n > 0 {
		p.Puddles = make([]uid.UUID, n)
		for i := range p.Puddles {
			p.Puddles[i] = d.uuid()
		}
	}
	return p
}

// puddle: addr:uv size:uv kind:uv pool:uuid
func (p *PuddleRec) appendBody(b []byte) []byte {
	return append(uvs(b, p.Addr, p.Size, p.Kind), p.Pool[:]...)
}

func (d *dec) puddle(id uid.UUID) PuddleRec {
	return PuddleRec{UUID: id, Addr: d.uv(), Size: d.uv(), Kind: d.uv(), Pool: d.uuid()}
}

// log space: addr:uv uid:uv gid:uv shards:uv
func (ls *LogSpaceRec) appendBody(b []byte) []byte {
	return uvs(b, ls.Addr, uint64(ls.Creds.UID), uint64(ls.Creds.GID), uint64(ls.Shards))
}

func (d *dec) logSpace(id uid.UUID) LogSpaceRec {
	return LogSpaceRec{UUID: id, Addr: d.uv(), Creds: Creds{d.u32(), d.u32()}, Shards: d.u32()}
}

// session: poolName:bytes poolUUID:uuid rootUUID:uuid uid:uv gid:uv mode:uv
// n:uv n×{uuid oldAddr:uv size:uv kind:uv stagedAt:uv newAddr:uv mapped:u8}
func (s *ImportSession) appendBody(b []byte) []byte {
	b = appendStr(b, s.PoolName)
	b = append(append(b, s.PoolUUID[:]...), s.RootUUID[:]...)
	b = uvs(b, uint64(s.Creds.UID), uint64(s.Creds.GID), uint64(s.Mode), uint64(len(s.Puddles)))
	for i := range s.Puddles {
		ip := &s.Puddles[i]
		b = uvs(append(b, ip.UUID[:]...), ip.OldAddr, ip.Size, ip.Kind, ip.StagedAt, ip.NewAddr)
		b = appendFlag(b, ip.Mapped)
	}
	return b
}

func (d *dec) session(key string) *ImportSession {
	id, _ := strconv.ParseUint(key, 10, 64) // keyOK vetted it
	s := &ImportSession{
		ID: id, PoolName: d.str(), PoolUUID: d.uuid(), RootUUID: d.uuid(),
		Creds: Creds{d.u32(), d.u32()}, Mode: d.u32(),
	}
	if n := d.count(len(uid.UUID{}) + 6); n > 0 {
		s.Puddles = make([]ImportPuddle, n)
		for i := range s.Puddles {
			s.Puddles[i] = ImportPuddle{
				UUID: d.uuid(), OldAddr: d.uv(), Size: d.uv(), Kind: d.uv(),
				StagedAt: d.uv(), NewAddr: d.uv(), Mapped: d.flag(),
			}
		}
	}
	return s
}

// typeList is the persisted pointer-map registry (recTypes).
//
// types: n:uv n×{id:u64le name:bytes size:uv m:uv m×offset:uv}
type typeList []ptypes.TypeInfo

func (ts typeList) appendBody(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(ts)))
	for i := range ts {
		t := &ts[i]
		b = binary.LittleEndian.AppendUint64(b, uint64(t.ID))
		b = uvs(appendStr(b, t.Name), uint64(t.Size), uint64(len(t.Ptrs)))
		for _, p := range t.Ptrs {
			b = binary.AppendUvarint(b, uint64(p.Offset))
		}
	}
	return b
}

func (d *dec) types() typeList {
	var ts typeList
	if n := d.count(8 + 3); n > 0 {
		ts = make(typeList, n)
		for i := range ts {
			t := &ts[i]
			t.ID, t.Name, t.Size = ptypes.TypeID(d.u64le()), d.str(), d.u32()
			if m := d.count(1); m > 0 {
				t.Ptrs = make([]ptypes.PtrField, m)
				for j := range t.Ptrs {
					t.Ptrs[j].Offset = d.u32()
				}
			}
		}
	}
	return ts
}

// counters: nextSession:uv recoveries:uv logsReplayed:uv entriesApplied:uv imports:uv
func (c *counters) appendBody(b []byte) []byte {
	return uvs(b, c.NextSession, c.Recoveries, c.LogsReplayed, c.EntriesApplied, c.Imports)
}

// memberRef is the value of a pool-membership delta (recPoolLink,
// recPoolUnlink): the member puddle.
//
// link, unlink: member:uuid
type memberRef uid.UUID

func (m *memberRef) appendBody(b []byte) []byte { return append(b, m[:]...) }

// migration out: pool:bytes target:bytes phase:uv standby:u8
//
// standby is a retired flag: always written 0, and a 1 is refused.
func (m *MigOutRec) appendBody(b []byte) []byte {
	b = appendStr(appendStr(b, m.Pool), m.Target)
	return append(binary.AppendUvarint(b, uint64(m.Phase)), 0)
}

// moved: target:bytes
func (m *MovedRec) appendBody(b []byte) []byte { return appendStr(b, m.Target) }

// migration done: pool:bytes
func (m *MigDoneRec) appendBody(b []byte) []byte { return appendStr(b, m.Pool) }

// The manifest travels as the Blob of OpMigrateBegin, in codec.go's
// grammar; it is part of the wire format, so a change to it bumps
// proto.ProtocolVersion.
//
// manifest: id:uuid pool:bytes poolUUID:uuid root:uuid ownerUID:uv ownerGID:uv mode:uv
// types (as recTypes) n:uv n×{uuid addr:uv size:uv kind:uv}
// k:uv k×{uuid uid:uv gid:uv shards:uv}
func (m *MigManifest) encode() []byte {
	b := appendStr(append([]byte(nil), m.ID[:]...), m.Pool)
	b = append(append(b, m.PoolUUID[:]...), m.Root[:]...)
	b = uvs(b, uint64(m.OwnerUID), uint64(m.OwnerGID), uint64(m.Mode))
	b = typeList(m.Types).appendBody(b)
	b = binary.AppendUvarint(b, uint64(len(m.Puddles)))
	for i := range m.Puddles {
		p := &m.Puddles[i]
		b = uvs(append(b, p.UUID[:]...), p.Addr, p.Size, p.Kind)
	}
	b = binary.AppendUvarint(b, uint64(len(m.LogSpaces)))
	for i := range m.LogSpaces {
		ls := &m.LogSpaces[i]
		b = uvs(append(b, ls.UUID[:]...), uint64(ls.Creds.UID), uint64(ls.Creds.GID), uint64(ls.Shards))
	}
	return b
}

func decodeManifest(blob []byte) (*MigManifest, error) {
	d := dec{b: blob}
	m := &MigManifest{
		ID: d.uuid(), Pool: d.str(), PoolUUID: d.uuid(), Root: d.uuid(),
		OwnerUID: d.u32(), OwnerGID: d.u32(), Mode: d.u32(), Types: d.types(),
	}
	if n := d.count(len(uid.UUID{}) + 3); n > 0 {
		m.Puddles = make([]MigPuddle, n)
		for i := range m.Puddles {
			m.Puddles[i] = MigPuddle{UUID: d.uuid(), Addr: d.uv(), Size: d.uv(), Kind: d.uv()}
		}
	}
	if n := d.count(len(uid.UUID{}) + 3); n > 0 {
		m.LogSpaces = make([]MigLogSpace, n)
		for i := range m.LogSpaces {
			m.LogSpaces[i] = MigLogSpace{UUID: d.uuid(), Creds: Creds{d.u32(), d.u32()}, Shards: d.u32()}
		}
	}
	if d.err == nil && len(d.b) > 0 {
		d.err = errTrailing
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}
