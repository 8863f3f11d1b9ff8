// Wire format, protocol version 2: every message between Libpuddles and
// puddled is one length-prefixed, CRC-guarded frame with a hand-written
// binary payload. No reflection, no encoder or decoder objects: encoders
// append to a reused byte slice, decoders consume the checked payload in
// place (the idiom of internal/daemon/codec.go, which does the same for
// the bytes the daemon persists).
//
//	frame    := len:u32le crc:u32le payload    len = len(payload), crc = CRC32C(payload)
//	hello    := magic:u64le version:u16le uid:u32le gid:u32le session:u64le token:u64le
//	welcome  := version:u16le bits:u16le fields
//	request  := op:uv id:uv bits:u16le fields
//	response := id:uv bits:u16le fields
//	fields   := the non-zero fields, in bit order; see the wire methods below
//	bytes    := len:uv len×u8
//	uv       := unsigned LEB128 (encoding/binary uvarint), minimal length only
//	uuid     := 16×u8
//
// bits is the presence bitmap: bit i is set exactly when field i is not
// its zero value, and only then is the field on the wire (a bool is its
// bit and nothing else). Blob is the last field of a request and of a
// response, so a large one is sent from and received into a buffer of
// its own.
//
// Caps: the first frame of a connection must be exactly a Hello
// (helloLen bytes, beginning with the magic) and its answer a Welcome of
// at most maxWelcome bytes — anything else is refused as soon as its
// 8-byte frame header is in; every later frame is at most MaxFrame
// bytes, refused before anything is allocated for it.
//
// Versioning: ONE version number, ProtocolVersion, carried by Hello and
// Welcome. Any change to a payload — a new field, a new op's use of an
// existing field aside — bumps it. A daemon reads exactly one version
// and answers any other with a typed Welcome.Err; there is no dual
// reader and no negotiation.
//
// The encoding is canonical — varints are minimal, a present field is
// never zero, unknown bitmap bits and trailing bytes are refused, every
// length is checked against the bytes left — so a payload that decodes
// re-encodes to the same bytes, which is what FuzzWireFrame holds it to.
package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"

	"puddles/internal/ptypes"
	"puddles/internal/uid"
)

const (
	frameHdr = 8  // len:u32le crc:u32le
	helloLen = 34 // the fixed Hello payload

	// MaxFrame caps the payload of every frame after the handshake. The
	// largest legitimate frames are pool containers (export, import).
	MaxFrame = 1 << 30
	// maxWelcome caps the Welcome: it must fit the read buffer, so a
	// client that dialed something else learns so from the first 8 bytes.
	maxWelcome = connBufBytes - frameHdr

	// connBufBytes is the read buffer of a connection. A frame that
	// fits is decoded in place; a larger one gets a buffer of its own.
	connBufBytes = 4 << 10
	// inlineBlob is the largest Blob copied into the send buffer; a
	// larger one leaves in the same writev, uncopied.
	inlineBlob = connBufBytes - 64
	// keepBuf is the largest send buffer a connection keeps between
	// frames (only a long list of names, types or puddles outgrows it).
	keepBuf = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WireError is a frame this side refused: over-long, failing its CRC,
// or not decodable. The connection it arrived on is dead.
type WireError struct {
	Region string // "handshake", "request" or "response"
	Op     string // the request's op, if the payload decoded that far
	Err    error
}

func (e *WireError) Error() string {
	if e.Op != "" {
		return fmt.Sprintf("proto: bad %s frame (%s): %v", e.Region, e.Op, e.Err)
	}
	return fmt.Sprintf("proto: bad %s frame: %v", e.Region, e.Err)
}

func (e *WireError) Unwrap() error { return e.Err }

// Decode failures. They are static so a hostile payload costs nothing
// to reject.
var (
	errTruncated = errors.New("truncated")
	errOverlong  = errors.New("length prefix exceeds payload")
	errVarint    = errors.New("malformed varint")
	errRange     = errors.New("value out of range")
	errTrailing  = errors.New("trailing bytes")
	errBits      = errors.New("unknown presence bit")
	errZero      = errors.New("present field is zero")
	errCRC       = errors.New("CRC mismatch")
	errFrameLen  = errors.New("frame length outside its cap")
	errMagic     = errors.New("bad magic")
)

// --- frames ---

// beginFrame reserves a frame header at the end of b.
func beginFrame(b []byte) []byte { return append(b, 0, 0, 0, 0, 0, 0, 0, 0) }

// endFrame fills in the header reserved at b[at:] for the payload that
// follows it in b and continues in tail.
func endFrame(b []byte, at int, tail []byte) {
	payload := b[at+frameHdr:]
	binary.LittleEndian.PutUint32(b[at:], uint32(len(payload)+len(tail)))
	sum := crc32.Checksum(payload, castagnoli)
	if len(tail) > 0 {
		sum = crc32.Update(sum, castagnoli, tail)
	}
	binary.LittleEndian.PutUint32(b[at+4:], sum)
}

// writeFrame sends frame (and the Blob bytes left out of it) in one
// write and returns the buffer to encode the next frame into.
func writeFrame(c net.Conn, frame, tail []byte) ([]byte, error) {
	var err error
	if len(tail) == 0 {
		_, err = c.Write(frame)
	} else {
		bufs := net.Buffers{frame, tail}
		_, err = bufs.WriteTo(c)
	}
	if cap(frame) > keepBuf {
		frame = nil
	}
	return frame[:0], err
}

// frameReader reads frames off one connection. region names, for
// WireError, what the connection is expected to carry next.
type frameReader struct {
	br     *bufio.Reader
	held   int // bytes of the previous in-place frame still to discard
	region string
}

func newFrameReader(c net.Conn) frameReader {
	return frameReader{br: bufio.NewReaderSize(c, connBufBytes), region: "handshake"}
}

func (f *frameReader) refuse(err error) error { return &WireError{Region: f.region, Err: err} }

// next returns the payload of the next frame, which must be lo to hi
// bytes long. A frame that fits the read buffer is returned in place and
// is valid until the following call; a larger one is owned: it has a
// buffer of its own, which the decoded message may keep. The error is
// io.EOF when the peer hung up between frames and a *WireError when it
// sent a frame this side refuses.
func (f *frameReader) next(lo, hi uint32) (payload []byte, owned bool, err error) {
	f.br.Discard(f.held)
	f.held = 0
	hdr, err := f.br.Peek(frameHdr)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, false, err
	}
	n, sum := binary.LittleEndian.Uint32(hdr), binary.LittleEndian.Uint32(hdr[4:])
	if n < lo || n > hi {
		return nil, false, f.refuse(fmt.Errorf("%w: %d, want %d to %d (header % x)", errFrameLen, n, lo, hi, hdr))
	}
	if size := frameHdr + int(n); size <= connBufBytes {
		b, err := f.br.Peek(size)
		if err != nil {
			return nil, false, unexpectedEOF(err)
		}
		payload, f.held = b[frameHdr:], size
	} else {
		f.br.Discard(frameHdr)
		if payload, err = f.readLarge(int(n)); err != nil {
			return nil, false, err
		}
		owned = true
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, false, f.refuse(errCRC)
	}
	return payload, owned, nil
}

// readLarge reads an n-byte payload into a buffer of its own. The buffer
// grows as bytes actually arrive — never past eight times what the peer
// has sent, 64 KiB at the least — so a header that announces MaxFrame
// and then goes silent costs one read buffer, not a gigabyte.
func (f *frameReader) readLarge(n int) ([]byte, error) {
	buf := make([]byte, min(n, connBufBytes))
	for filled := 0; ; {
		m, err := io.ReadFull(f.br, buf[filled:])
		if filled += m; err != nil {
			return nil, unexpectedEOF(err)
		}
		if filled == n {
			return buf, nil
		}
		grown := make([]byte, min(n, max(8*filled, 64<<10)))
		copy(grown, buf)
		buf = grown
	}
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// --- consuming ---

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

func (d *dec) u16le() uint16 {
	if v := d.take(2); v != nil {
		return binary.LittleEndian.Uint16(v)
	}
	return 0
}

func (d *dec) u32le() uint32 {
	if v := d.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (d *dec) u64le() uint64 {
	if v := d.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
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

// end is the decode's verdict: everything consumed, nothing malformed.
func (d *dec) end() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = errTrailing
	}
	return d.err
}

// --- one description per message, walked to encode and to decode ---

// coder walks a message's fields in wire order. Encoding, it appends the
// non-zero ones to b and collects their bits; decoding, it reads the ones
// whose bit is set out of d and refuses a zero. One walk serves both
// directions, so they cannot disagree on order, width or presence.
type coder struct {
	enc   bool
	b     []byte // encoding: the output
	tail  []byte // encoding: a Blob left out of b, to be sent right after it
	d     dec    // decoding: the input
	owned bool   // decoding: the payload is the message's to keep (alias Blob)
	bits  uint16
	bit   uint16 // of the next field; 0 once all sixteen are taken

	at, bitsAt int // encoding: where in b the frame and its bitmap begin
}

// on reports whether the next field is on the wire: encoding, because it
// is not zero; decoding, because its bit says so (nonzero is not looked
// at, so callers with a costly test pass c.enc && test).
func (c *coder) on(nonzero bool) bool {
	bit := c.bit
	c.bit <<= 1
	if c.enc {
		if nonzero {
			c.bits |= bit
		}
		return nonzero
	}
	return c.bits&bit != 0
}

// present refuses a field that is on the wire and zero.
func (c *coder) present(nonzero bool) {
	if !nonzero {
		c.d.fail(errZero)
	}
}

func (c *coder) flag(p *bool) { *p = c.on(*p) }

func (c *coder) uv(p *uint64) {
	if c.on(*p != 0) {
		c.word(p)
		c.present(*p != 0)
	}
}

func (c *coder) u32(p *uint32) {
	if c.on(*p != 0) {
		c.rawU32(p)
		c.present(*p != 0)
	}
}

func (c *coder) u64le(p *uint64) {
	if !c.on(*p != 0) {
		return
	}
	if c.enc {
		c.b = binary.LittleEndian.AppendUint64(c.b, *p)
		return
	}
	*p = c.d.u64le()
	c.present(*p != 0)
}

func (c *coder) uuid(p *uid.UUID) {
	if c.on(*p != uid.Nil) {
		c.rawUUID(p)
		c.present(*p != uid.Nil)
	}
}

func (c *coder) str(p *string) {
	if c.on(*p != "") {
		c.rawStr(p)
		c.present(*p != "")
	}
}

// blob is the last field of its message. Encoding, a large one stays out
// of b (tail); decoding, it aliases a payload the message owns and is
// copied out of one it does not.
func (c *coder) blob(p *[]byte) {
	if !c.on(len(*p) > 0) {
		return
	}
	if c.enc {
		c.b = binary.AppendUvarint(c.b, uint64(len(*p)))
		if len(*p) > inlineBlob {
			c.tail = *p
		} else {
			c.b = append(c.b, *p...)
		}
		return
	}
	if *p = c.d.bytes(); !c.owned {
		*p = bytes.Clone(*p)
	}
	c.present(len(*p) > 0)
}

// The raw coders below carry no presence bit: they are the insides of a
// field (a struct's members, a list's elements), always on the wire.

func (c *coder) word(p *uint64) {
	if c.enc {
		c.b = binary.AppendUvarint(c.b, *p)
	} else {
		*p = c.d.uv()
	}
}

func (c *coder) rawU32(p *uint32) {
	v := uint64(*p)
	if c.word(&v); v > math.MaxUint32 {
		c.d.fail(errRange)
	}
	*p = uint32(v)
}

func (c *coder) num(p *int) {
	v := uint64(int64(*p))
	c.word(&v)
	if *p = int(int64(v)); int64(*p) != int64(v) {
		c.d.fail(errRange)
	}
}

func (c *coder) rawUUID(p *uid.UUID) {
	if c.enc {
		c.b = append(c.b, p[:]...)
	} else {
		copy(p[:], c.d.take(len(p)))
	}
}

func (c *coder) rawStr(p *string) {
	if c.enc {
		c.b = append(binary.AppendUvarint(c.b, uint64(len(*p))), *p...)
	} else {
		*p = string(c.d.bytes())
	}
}

// list codes an element count and sizes *p for it when decoding; the
// caller codes the elements. min is the least an element takes.
func list[T any](c *coder, p *[]T, min int) {
	if c.enc {
		c.b = binary.AppendUvarint(c.b, uint64(len(*p)))
	} else if n := c.d.count(min); n > 0 {
		*p = make([]T, n)
	}
}

// typeinfo := id:u64le name:bytes size:uv m:uv m×offset:uv
func (c *coder) rawType(t *ptypes.TypeInfo) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint64(c.b, uint64(t.ID))
	} else {
		t.ID = ptypes.TypeID(c.d.u64le())
	}
	c.rawStr(&t.Name)
	c.rawU32(&t.Size)
	list(c, &t.Ptrs, 1)
	for i := range t.Ptrs {
		c.rawU32(&t.Ptrs[i].Offset)
	}
}

func typeZero(t *ptypes.TypeInfo) bool {
	return t.ID == 0 && t.Name == "" && t.Size == 0 && len(t.Ptrs) == 0
}

func (c *coder) typeInfo(t *ptypes.TypeInfo) {
	if c.on(c.enc && !typeZero(t)) {
		c.rawType(t)
		c.present(!typeZero(t))
	}
}

// types := n:uv n×typeinfo
func (c *coder) types(p *[]ptypes.TypeInfo) {
	if !c.on(len(*p) > 0) {
		return
	}
	list(c, p, 8+3)
	for i := range *p {
		c.rawType(&(*p)[i])
	}
	c.present(len(*p) > 0)
}

// names := n:uv n×bytes
func (c *coder) names(p *[]string) {
	if !c.on(len(*p) > 0) {
		return
	}
	list(c, p, 1)
	for i := range *p {
		c.rawStr(&(*p)[i])
	}
	c.present(len(*p) > 0)
}

// puddles := n:uv n×{uuid addr:uv size:uv kind:uv}
func (c *coder) puddles(p *[]PuddleInfo) {
	if !c.on(len(*p) > 0) {
		return
	}
	list(c, p, len(uid.UUID{})+3)
	for i := range *p {
		pi := &(*p)[i]
		c.rawUUID(&pi.UUID)
		c.word(&pi.Addr)
		c.word(&pi.Size)
		c.word(&pi.Kind)
	}
	c.present(len(*p) > 0)
}

// stats := every field of Stats, in declaration order, each a uv
func (c *coder) stats(s *Stats) {
	if !c.on(c.enc && *s != Stats{}) {
		return
	}
	c.num(&s.Pools)
	c.num(&s.Puddles)
	c.word(&s.ReservedBytes)
	c.num(&s.LogSpaces)
	c.num(&s.Types)
	for _, p := range [...]*uint64{
		&s.Recoveries, &s.LogsReplayed, &s.EntriesApplied, &s.Imports,
		&s.PersistErrors, &s.DispatchPanics, &s.JournalBytes,
		&s.JournalReplayed, &s.BootLoadNs, &s.BootReplayNs, &s.JournalDecodeErrors,
		&s.Checkpoints, &s.CheckpointChunks, &s.CheckpointBytes, &s.CheckpointSeq,
		&s.CkptPauseTotalNs, &s.CkptPauseMaxNs, &s.RegistryGen,
		&s.CacheHits, &s.CacheMisses, &s.CacheRefills, &s.SlabDonations, &s.ReclaimedSlabs,
	} {
		c.word(p)
	}
	c.num(&s.ActiveConns)
	c.num(&s.ActiveSessions)
	for _, p := range [...]*uint64{
		&s.AcceptErrors, &s.HandshakeRejects, &s.WireDecodeErrors, &s.SessionResumes,
		&s.PoolCapRejects, &s.GrantCapRejects, &s.ByteCapRejects,
		&s.MigrationsOut, &s.MigrationsIn, &s.MigrationAborts,
	} {
		c.word(p)
	}
	c.present(*s != Stats{})
}

// report := rounds:uv snapshotBytes:uv deltaBytes:uv finalBytes:uv pauseNs:uv totalNs:uv
func (c *coder) report(r *MigReport) {
	if !c.on(c.enc && *r != MigReport{}) {
		return
	}
	c.num(&r.Rounds)
	for _, p := range [...]*uint64{&r.SnapshotBytes, &r.DeltaBytes, &r.FinalBytes, &r.PauseNs, &r.TotalNs} {
		c.word(p)
	}
	c.present(*r != MigReport{})
}

// --- the messages ---

// wire lists a request's fields; the order is the bit assignment.
func (r *Request) wire(c *coder) {
	c.u64le(&r.SID)     // 0
	c.uuid(&r.UUID)     // 1
	c.uuid(&r.Pool)     // 2
	c.uv(&r.Addr)       // 3
	c.uv(&r.Size)       // 4
	c.str(&r.Name)      // 5
	c.uv(&r.Kind)       // 6
	c.u32(&r.UID)       // 7
	c.u32(&r.GID)       // 8
	c.u32(&r.Mode)      // 9
	c.typeInfo(&r.Type) // 10
	c.u64le(&r.TypeID)  // 11
	c.uv(&r.Session)    // 12
	c.u32(&r.Shards)    // 13
	c.str(&r.Target)    // 14
	c.blob(&r.Blob)     // 15
}

// wire lists a response's fields; the order is the bit assignment.
func (r *Response) wire(c *coder) {
	c.str(&r.Err)         // 0
	c.uuid(&r.UUID)       // 1
	c.uuid(&r.Pool)       // 2
	c.uv(&r.Addr)         // 3
	c.uv(&r.Size)         // 4
	c.flag(&r.Writable)   // 5
	c.puddles(&r.Puddles) // 6
	c.flag(&r.Mapped)     // 7
	c.names(&r.Names)     // 8
	c.typeInfo(&r.Type)   // 9
	c.types(&r.Types)     // 10
	c.uv(&r.Session)      // 11
	c.stats(&r.Stats)     // 12
	c.report(&r.Report)   // 13
	c.blob(&r.Blob)       // 14
}

// wire lists a welcome's fields; the order is the bit assignment.
func (w *Welcome) wire(c *coder) {
	c.str(&w.Err)       // 0
	c.u64le(&w.Session) // 1
	c.u64le(&w.Token)   // 2
	c.flag(&w.Resumed)  // 3
}

// encoder starts a frame at the end of b; the caller appends what
// precedes the bitmap to c.b, then calls fields, the message's wire,
// and finish.
func encoder(b []byte) coder { return coder{enc: true, bit: 1, at: len(b), b: beginFrame(b)} }

// fields reserves the bitmap.
func (c *coder) fields() {
	c.bitsAt = len(c.b)
	c.b = append(c.b, 0, 0)
}

// finish completes the frame. A Blob too large to copy is returned as
// tail, to be sent right behind the frame.
func (c *coder) finish() (frame, tail []byte) {
	binary.LittleEndian.PutUint16(c.b[c.bitsAt:], c.bits)
	endFrame(c.b, c.at, c.tail)
	return c.b, c.tail
}

// decoder starts the decode of what follows a message's head in d: the
// bitmap now, the fields when the caller runs the message's wire.
func decoder(d dec, owned bool) coder {
	bits := d.u16le()
	return coder{bits: bits, bit: 1, d: d, owned: owned}
}

// end is a decode's verdict, after the message's wire has run.
func (c *coder) end() error {
	if c.bits&^(c.bit-1) != 0 {
		c.d.fail(errBits)
	}
	return c.d.end()
}

// AppendHello appends h's frame to b.
func AppendHello(b []byte, h *Hello) []byte {
	at := len(b)
	b = binary.LittleEndian.AppendUint64(beginFrame(b), h.Magic)
	b = binary.LittleEndian.AppendUint16(b, h.Version)
	b = binary.LittleEndian.AppendUint32(b, h.UID)
	b = binary.LittleEndian.AppendUint32(b, h.GID)
	b = binary.LittleEndian.AppendUint64(b, h.Session)
	b = binary.LittleEndian.AppendUint64(b, h.Token)
	endFrame(b, at, nil)
	return b
}

// DecodeHello decodes a Hello payload. It refuses one that does not
// begin with the magic; the version is the caller's to judge.
func DecodeHello(p []byte, h *Hello) error {
	d := dec{b: p}
	*h = Hello{Magic: d.u64le(), Version: d.u16le(), UID: d.u32le(), GID: d.u32le(), Session: d.u64le(), Token: d.u64le()}
	if d.err == nil && h.Magic != HandshakeMagic {
		return fmt.Errorf("%w %#x (not a puddles client?)", errMagic, h.Magic)
	}
	return d.end()
}

// AppendWelcome appends w's frame to b.
func AppendWelcome(b []byte, w *Welcome) []byte {
	c := encoder(b)
	c.b = binary.LittleEndian.AppendUint16(c.b, w.Version)
	c.fields()
	w.wire(&c)
	b, _ = c.finish()
	return b
}

// DecodeWelcome decodes a Welcome payload.
func DecodeWelcome(p []byte, w *Welcome) error {
	d := dec{b: p}
	*w = Welcome{Version: d.u16le()}
	c := decoder(d, false)
	w.wire(&c)
	return c.end()
}

func appendRequest(b []byte, r *Request) (frame, tail []byte) {
	c := encoder(b)
	c.b = binary.AppendUvarint(binary.AppendUvarint(c.b, uint64(r.Op)), r.ID)
	c.fields()
	r.wire(&c)
	return c.finish()
}

// AppendRequest appends r's frame to b.
func AppendRequest(b []byte, r *Request) []byte {
	frame, tail := appendRequest(b, r)
	return append(frame, tail...)
}

// DecodeRequest decodes a request payload into r. With owned, r.Blob
// aliases p; without, r keeps nothing of p.
func DecodeRequest(p []byte, r *Request, owned bool) error {
	d := dec{b: p}
	op := d.uv()
	if op > math.MaxUint16 {
		d.fail(errRange)
	}
	*r = Request{Op: Op(op), ID: d.uv()}
	c := decoder(d, owned)
	r.wire(&c)
	return c.end()
}

func appendResponse(b []byte, r *Response) (frame, tail []byte) {
	c := encoder(b)
	c.b = binary.AppendUvarint(c.b, r.ID)
	c.fields()
	r.wire(&c)
	return c.finish()
}

// AppendResponse appends r's frame to b.
func AppendResponse(b []byte, r *Response) []byte {
	frame, tail := appendResponse(b, r)
	return append(frame, tail...)
}

// DecodeResponse decodes a response payload into r. With owned, r.Blob
// aliases p; without, r keeps nothing of p.
func DecodeResponse(p []byte, r *Response, owned bool) error {
	d := dec{b: p}
	*r = Response{ID: d.uv()}
	c := decoder(d, owned)
	r.wire(&c)
	return c.end()
}
