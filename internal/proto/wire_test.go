package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"puddles/internal/ptypes"
	"puddles/internal/uid"
)

var (
	idA = uid.UUID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	idB = uid.UUID{0xb0, 0xb1, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xbb, 0xbc, 0xbd, 0xbe, 0xbf}

	nodeType = ptypes.TypeInfo{ID: 0x0102030405060708, Name: "node", Size: 24, Ptrs: []ptypes.PtrField{{Offset: 8}, {Offset: 16}}}
)

// frameOf is the frame a message encodes to, whatever its kind.
func frameOf(t testing.TB, msg any) []byte {
	t.Helper()
	switch m := msg.(type) {
	case *Hello:
		return AppendHello(nil, m)
	case *Welcome:
		return AppendWelcome(nil, m)
	case *Request:
		return AppendRequest(nil, m)
	case *Response:
		return AppendResponse(nil, m)
	}
	t.Fatalf("no frame for %T", msg)
	return nil
}

// decodeLike decodes payload into a fresh message of msg's kind.
func decodeLike(msg any, payload []byte, owned bool) (any, error) {
	switch msg.(type) {
	case *Hello:
		m := new(Hello)
		return m, DecodeHello(payload, m)
	case *Welcome:
		m := new(Welcome)
		return m, DecodeWelcome(payload, m)
	case *Request:
		m := new(Request)
		return m, DecodeRequest(payload, m, owned)
	default:
		m := new(Response)
		return m, DecodeResponse(payload, m, owned)
	}
}

// goldens pins the bytes of the handshake and of one request and one
// response per op family. A change here is a wire format change: bump
// ProtocolVersion and the README table with it.
var goldens = []struct {
	name string
	msg  any
	hex  string // the payload; the frame header is checked separately
}{
	{"hello", &Hello{Magic: HandshakeMagic, Version: 4, UID: 1000, GID: 100, Session: 0x1122334455667788, Token: 0x99aabbccddeeff00},
		"505544444c455331" + "0400" + "e8030000" + "64000000" + "8877665544332211" + "00ffeeddccbbaa99"},
	{"welcome", &Welcome{Version: 4, Session: 0x1122334455667788, Token: 0x99aabbccddeeff00, Resumed: true},
		"0400" + "0e00" + "8877665544332211" + "00ffeeddccbbaa99"},
	{"welcome refusal", &Welcome{Version: 4, Err: "no"},
		"0400" + "0100" + "026e6f"},

	{"req nop", &Request{Op: OpNop, ID: 1, SID: 7},
		"00" + "01" + "0100" + "0700000000000000"},
	{"req hello", &Request{Op: OpHello, ID: 2, UID: 1000, GID: 100},
		"01" + "02" + "8001" + "e807" + "64"},
	{"req create pool", &Request{Op: OpCreatePool, ID: 3, SID: 7, Name: "p", Mode: 0o600},
		"02" + "03" + "2102" + "0700000000000000" + "0170" + "8003"},
	{"req grant", &Request{Op: OpGetNewPuddle, ID: 300, SID: 7, Pool: idA, Size: 8192},
		"06" + "ac02" + "1500" + "0700000000000000" + "0102030405060708090a0b0c0d0e0f10" + "8040"},
	{"req free", &Request{Op: OpFreePuddle, ID: 4, UUID: idA},
		"08" + "04" + "0200" + "0102030405060708090a0b0c0d0e0f10"},
	{"req log space", &Request{Op: OpRegLogSpace, ID: 5, UUID: idA, Addr: 1 << 40, Shards: 4},
		"09" + "05" + "0a20" + "0102030405060708090a0b0c0d0e0f10" + "808080808020" + "04"},
	{"req register type", &Request{Op: OpRegisterType, ID: 6, Type: nodeType},
		"0b" + "06" + "0004" + "0807060504030201" + "046e6f6465" + "18" + "02" + "08" + "10"},
	{"req get type", &Request{Op: OpGetType, ID: 7, TypeID: 0x0102030405060708},
		"0c" + "07" + "0008" + "0807060504030201"},
	{"req import", &Request{Op: OpImportPool, ID: 8, Name: "p", Blob: []byte{0xde, 0xad}},
		"0f" + "08" + "2080" + "0170" + "02dead"},
	{"req import map", &Request{Op: OpImportMap, ID: 9, UUID: idA, Session: 5},
		"11" + "09" + "0210" + "0102030405060708090a0b0c0d0e0f10" + "05"},
	{"req migrate", &Request{Op: OpMigratePool, ID: 10, Name: "p", Target: "tcp://h:1"},
		"17" + "0a" + "2040" + "0170" + "097463703a2f2f683a31"},
	{"req chunk", &Request{Op: OpMigrateChunk, ID: 11, UUID: idA, Pool: idB, Addr: 4096, Blob: []byte{1}},
		"19" + "0b" + "0e80" + "0102030405060708090a0b0c0d0e0f10" + "b0b1b2b3b4b5b6b7b8b9babbbcbdbebf" + "8020" + "0101"},

	{"resp ok", &Response{ID: 1}, "01" + "0000"},
	{"resp error", &Response{ID: 2, Err: "no"}, "02" + "0100" + "026e6f"},
	{"resp grant", &Response{ID: 300, UUID: idA, Addr: 1 << 30, Size: 8192, Writable: true},
		"ac02" + "3a00" + "0102030405060708090a0b0c0d0e0f10" + "8080808004" + "8040"},
	{"resp open", &Response{ID: 3, UUID: idA, Pool: idB, Addr: 4096, Size: 8192, Writable: true,
		Puddles: []PuddleInfo{{UUID: idA, Addr: 4096, Size: 8192, Kind: 1}}},
		"03" + "7e00" + "0102030405060708090a0b0c0d0e0f10" + "b0b1b2b3b4b5b6b7b8b9babbbcbdbebf" + "8020" + "8040" +
			"01" + "0102030405060708090a0b0c0d0e0f10" + "8020" + "8040" + "01"},
	{"resp names", &Response{ID: 4, Names: []string{"a", "bc"}}, "04" + "0001" + "02" + "0161" + "026263"},
	{"resp types", &Response{ID: 5, Type: nodeType, Types: []ptypes.TypeInfo{{ID: 9, Name: "t"}}},
		"05" + "0006" + "0807060504030201" + "046e6f6465" + "18" + "02" + "08" + "10" +
			"01" + "0900000000000000" + "0174" + "00" + "00"},
	{"resp import", &Response{ID: 6, Mapped: true, Session: 5, Blob: []byte{0xbe, 0xef}},
		"06" + "8048" + "05" + "02beef"},
	{"resp stat", &Response{ID: 7, Stats: Stats{Pools: 1, WireDecodeErrors: 2, MigrationAborts: 3}},
		"07" + "0010" + "01" + strings.Repeat("00", 31) + "02" + strings.Repeat("00", 6) + "03"},
	{"resp report", &Response{ID: 8, Report: MigReport{Rounds: 2, SnapshotBytes: 3, DeltaBytes: 4, FinalBytes: 5, PauseNs: 6, TotalNs: 7}},
		"08" + "0020" + "02" + "03" + "04" + "05" + "06" + "07"},
}

func TestWireGolden(t *testing.T) {
	for _, g := range goldens {
		frame := frameOf(t, g.msg)
		payload := frame[frameHdr:]
		if got := hex.EncodeToString(payload); got != g.hex {
			t.Errorf("%s: payload\n got %s\nwant %s", g.name, got, g.hex)
			continue
		}
		if n := binary.LittleEndian.Uint32(frame); int(n) != len(payload) {
			t.Errorf("%s: header len %d, payload %d", g.name, n, len(payload))
		}
		if sum := binary.LittleEndian.Uint32(frame[4:]); sum != crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)) {
			t.Errorf("%s: header crc %#x is not CRC32C of the payload", g.name, sum)
		}
		back, err := decodeLike(g.msg, payload, false)
		if err != nil {
			t.Errorf("%s: decode: %v", g.name, err)
		} else if !reflect.DeepEqual(back, g.msg) {
			t.Errorf("%s: decoded %+v, want %+v", g.name, back, g.msg)
		}
	}
	if len(AppendHello(nil, &Hello{})) != frameHdr+helloLen {
		t.Fatalf("Hello frame is %d bytes, want %d", len(AppendHello(nil, &Hello{})), frameHdr+helloLen)
	}
}

// fill sets every field under v (recursively) to a non-zero value
// derived from seed; max picks the largest value each type holds.
func fill(v reflect.Value, seed *uint64, max bool) {
	*seed++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		if v.SetInt(int64(*seed)); max {
			v.SetInt(math.MaxInt64)
		}
	case reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if v.SetUint(*seed); max {
			v.SetUint(math.MaxUint64 >> (64 - v.Type().Bits()))
		}
	case reflect.Uint8:
		v.SetUint(*seed | 1)
	case reflect.String:
		if v.SetString("s" + strings.Repeat("x", int(*seed%5))); max {
			v.SetString(strings.Repeat("\xff", 300))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), seed, max)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), seed, max)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), seed, max)
		}
	default:
		panic("fill: no rule for " + v.Type().String() + ": teach the codec and this test the new kind")
	}
}

// TestWireEveryField sets every field of Request and Response — and
// through them of Stats, MigReport, TypeInfo and PuddleInfo — non-zero,
// by reflection, so a field added to a union without codec support
// comes back zero and fails here.
func TestWireEveryField(t *testing.T) {
	for _, max := range []bool{false, true} {
		for _, msg := range []any{new(Hello), new(Welcome), new(Request), new(Response)} {
			var seed uint64
			fill(reflect.ValueOf(msg).Elem(), &seed, max)
			if h, ok := msg.(*Hello); ok {
				h.Magic = HandshakeMagic
			}
			frame := frameOf(t, msg)
			for _, owned := range []bool{false, true} {
				back, err := decodeLike(msg, frame[frameHdr:], owned)
				if err != nil {
					t.Fatalf("%T (max=%v): %v", msg, max, err)
				}
				if !reflect.DeepEqual(back, msg) {
					t.Fatalf("%T (max=%v, owned=%v): round trip lost a field:\n got %+v\nwant %+v", msg, max, owned, back, msg)
				}
				if again := frameOf(t, back); !bytes.Equal(again, frame) {
					t.Fatalf("%T: re-encoding differs", msg)
				}
			}
		}
	}
}

func TestWireZeroValues(t *testing.T) {
	for _, c := range []struct {
		msg  any
		want string
	}{
		{&Request{}, "00" + "00" + "0000"},
		{&Response{}, "00" + "0000"},
		{&Welcome{}, "0000" + "0000"},
		// Empty, non-nil slices are zero values too: nothing goes on the wire.
		{&Response{Names: []string{}, Types: []ptypes.TypeInfo{}, Puddles: []PuddleInfo{}, Blob: []byte{}}, "00" + "0000"},
	} {
		if got := hex.EncodeToString(frameOf(t, c.msg)[frameHdr:]); got != c.want {
			t.Errorf("%T zero value: payload %s, want %s", c.msg, got, c.want)
		}
	}
	// Negative ints survive (two's complement), at ten bytes apiece.
	in := &Response{Stats: Stats{Pools: -1}, Report: MigReport{Rounds: math.MinInt64}}
	out := new(Response)
	if err := DecodeResponse(AppendResponse(nil, in)[frameHdr:], out, false); err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("negative ints: %+v, %v", out, err)
	}
}

// TestWireBlobAliasing: a Blob aliases a payload its message owns and
// is copied out of one it does not.
func TestWireBlobAliasing(t *testing.T) {
	payload := AppendRequest(nil, &Request{Op: OpImportPool, Blob: []byte("blob")})[frameHdr:]
	var owned, lent Request
	if err := DecodeRequest(payload, &owned, true); err != nil {
		t.Fatal(err)
	}
	if err := DecodeRequest(payload, &lent, false); err != nil {
		t.Fatal(err)
	}
	payload[len(payload)-1] = 'B'
	if string(owned.Blob) != "bloB" {
		t.Errorf("owned Blob %q does not alias its payload", owned.Blob)
	}
	if string(lent.Blob) != "blob" {
		t.Errorf("lent Blob %q aliases a payload it does not own", lent.Blob)
	}
}

// TestWireRejects holds the decoders to the strictness of
// daemon/codec.go's: nothing but the canonical encoding decodes.
func TestWireRejects(t *testing.T) {
	// Every strict prefix of every golden payload is refused.
	for _, g := range goldens {
		payload := frameOf(t, g.msg)[frameHdr:]
		for n := 0; n < len(payload); n++ {
			if _, err := decodeLike(g.msg, payload[:n], false); err == nil {
				t.Errorf("%s: %d-byte prefix of %d bytes decoded", g.name, n, len(payload))
			}
		}
		if _, err := decodeLike(g.msg, append(payload[:len(payload):len(payload)], 0), false); !errors.Is(err, errTrailing) && !errors.Is(err, errMagic) {
			t.Errorf("%s: trailing byte: %v", g.name, err)
		}
	}
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range []struct {
		name    string
		msg     any
		payload string
		want    error
	}{
		{"padded varint op", &Request{}, "8000" + "01" + "0000", errVarint},
		{"padded varint id", &Request{}, "00" + "8100" + "0000", errVarint},
		{"padded varint field", &Request{}, "00" + "01" + "0800" + "8100", errVarint},
		{"11-byte varint", &Response{}, "ffffffffffffffffffff01" + "0000", errVarint},
		{"op past uint16", &Request{}, "808004" + "01" + "0000", errRange},
		{"uid past uint32", &Request{}, "00" + "01" + "8000" + "8080808010", errRange},
		{"unknown response bit", &Response{}, "01" + "0080", errBits}, // a request has none to spare
		{"unknown welcome bit", &Welcome{}, "0200" + "1000", errBits},
		{"present and zero: addr", &Request{}, "00" + "01" + "0800" + "00", errZero},
		{"present and zero: sid", &Request{}, "00" + "01" + "0100" + "0000000000000000", errZero},
		{"present and zero: uuid", &Request{}, "00" + "01" + "0200" + strings.Repeat("00", 16), errZero},
		{"present and zero: name", &Request{}, "00" + "01" + "2000" + "00", errZero},
		{"present and zero: blob", &Request{}, "00" + "01" + "0080" + "00", errZero},
		{"present and zero: type", &Request{}, "00" + "01" + "0004" + strings.Repeat("00", 8) + "000000", errZero},
		{"present and zero: names", &Response{}, "01" + "0001" + "00", errZero},
		{"present and zero: puddles", &Response{}, "01" + "4000" + "00", errZero},
		{"present and zero: stats", &Response{}, "01" + "0010" + strings.Repeat("00", 46), errZero},
		{"present and zero: report", &Response{}, "01" + "0020" + strings.Repeat("00", 6), errZero},
		{"string past the payload", &Response{}, "01" + "0100" + "05" + "6e6f", errOverlong},
		{"count past the payload", &Response{}, "01" + "0001" + "05" + "0161", errOverlong},
		{"count past the payload: puddles", &Response{}, "01" + "4000" + "02" + strings.Repeat("11", 19), errOverlong},
		{"blob past the payload", &Request{}, "00" + "01" + "0080" + "ffffffff0f" + "00", errOverlong},
		{"bad magic", &Hello{}, "505544444c455332" + strings.Repeat("00", 26), errMagic},
	} {
		if _, err := decodeLike(c.msg, unhex(c.payload), false); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
}

// pipeReader serves a frameReader from a byte slice.
func readerOver(b []byte) frameReader {
	return frameReader{br: bufio.NewReaderSize(bytes.NewReader(b), connBufBytes), region: "request"}
}

func TestFrameRejects(t *testing.T) {
	good := AppendRequest(nil, &Request{Op: OpNop, ID: 1, SID: 7})
	for _, c := range []struct {
		name   string
		mangle func([]byte) []byte
		lo, hi uint32
		want   error
	}{
		{"bad CRC", func(b []byte) []byte { b[4] ^= 1; return b }, 0, MaxFrame, errCRC},
		{"flipped payload bit", func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }, 0, MaxFrame, errCRC},
		{"len past the cap", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, MaxFrame+1)
			return b
		}, 0, MaxFrame, errFrameLen},
		{"not Hello-sized", func(b []byte) []byte { return b }, helloLen, helloLen, errFrameLen},
		{"a gob stream", func([]byte) []byte { return []byte("\x3f\xff\x81\x03\x01\x01\x05Hello") }, helloLen, helloLen, errFrameLen},
		{"cut in the header", func(b []byte) []byte { return b[:5] }, 0, MaxFrame, io.ErrUnexpectedEOF},
		{"cut in the payload", func(b []byte) []byte { return b[:len(b)-1] }, 0, MaxFrame, io.ErrUnexpectedEOF},
	} {
		fr := readerOver(c.mangle(bytes.Clone(good)))
		_, _, err := fr.next(c.lo, c.hi)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
		var we *WireError
		if wire := c.want != io.ErrUnexpectedEOF; errors.As(err, &we) != wire {
			t.Errorf("%s: WireError = %v, want %v", c.name, !wire, wire)
		} else if wire && we.Region != "request" {
			t.Errorf("%s: region %q", c.name, we.Region)
		}
	}
	fr := readerOver(nil)
	if _, _, err := fr.next(0, MaxFrame); err != io.EOF {
		t.Errorf("hangup between frames: %v, want io.EOF", err)
	}
}

// TestFrameSizes walks frames across the in-place/own-buffer boundary
// and the growth steps of readLarge, several to a stream.
func TestFrameSizes(t *testing.T) {
	var stream []byte
	sizes := []int{0, 1, inlineBlob, inlineBlob + 1, connBufBytes - 14, connBufBytes - 13, connBufBytes, 64 << 10, 64<<10 + 1, 600 << 10}
	for i, n := range sizes {
		stream = AppendRequest(stream, &Request{Op: OpImportPool, ID: uint64(i), Blob: bytes.Repeat([]byte{byte(i + 1)}, n)})
	}
	fr := readerOver(stream)
	for i, n := range sizes {
		p, owned, err := fr.next(0, MaxFrame)
		if err != nil {
			t.Fatalf("frame %d (%d-byte blob): %v", i, n, err)
		}
		if want := frameHdr+len(p) > connBufBytes; owned != want {
			t.Errorf("frame %d: %d-byte payload owned = %v, want %v", i, len(p), owned, want)
		}
		var req Request
		if err := DecodeRequest(p, &req, owned); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if req.ID != uint64(i) || len(req.Blob) != n || (n > 0 && (req.Blob[0] != byte(i+1) || req.Blob[n-1] != byte(i+1))) {
			t.Fatalf("frame %d: id %d, %d-byte blob", i, req.ID, len(req.Blob))
		}
	}
	if _, _, err := fr.next(0, MaxFrame); err != io.EOF {
		t.Fatalf("after the last frame: %v", err)
	}
}

// allocatedBy is the heap f allocated, in bytes.
func allocatedBy(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestGiantFrameCostsWhatArrives: a header that announces MaxFrame costs
// memory in proportion to the bytes that follow it, not to its claim.
func TestGiantFrameCostsWhatArrives(t *testing.T) {
	for _, sent := range []int{0, 100, 10 << 10, 200 << 10} {
		stream := make([]byte, frameHdr+sent)
		binary.LittleEndian.PutUint32(stream, MaxFrame)
		fr := readerOver(stream)
		var err error
		got := allocatedBy(func() { _, _, err = fr.next(0, MaxFrame) })
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("%d bytes sent: %v", sent, err)
		}
		if limit := uint64(16*sent + 128<<10); got > limit {
			t.Errorf("%d bytes of a claimed %d arrived: %d bytes allocated, want at most %d", sent, MaxFrame, got, limit)
		}
	}
}

func grantPair() (*Request, *Response) {
	return &Request{Op: OpGetNewPuddle, ID: 77, SID: 0x1122334455667788, Pool: idA, Size: 8192},
		&Response{ID: 77, UUID: idB, Addr: 1 << 30, Size: 8192, Writable: true}
}

func TestWireAllocs(t *testing.T) {
	req, resp := grantPair()
	buf := make([]byte, 0, 256)
	var reqFrame, respFrame []byte
	if n := testing.AllocsPerRun(100, func() {
		reqFrame, _ = appendRequest(buf, req)
		respFrame, _ = appendResponse(reqFrame, resp)
	}); n != 0 {
		t.Errorf("encoding a grant pair into a warm buffer: %v allocs, want 0", n)
	}
	respFrame = respFrame[len(reqFrame):]
	var gotReq Request
	var gotResp Response
	if n := testing.AllocsPerRun(100, func() {
		if DecodeRequest(reqFrame[frameHdr:], &gotReq, false) != nil || DecodeResponse(respFrame[frameHdr:], &gotResp, false) != nil {
			t.Fatal("decode failed")
		}
	}); n != 0 {
		t.Errorf("decoding a grant pair: %v allocs, want 0", n)
	}
	if !reflect.DeepEqual(&gotReq, req) || !reflect.DeepEqual(&gotResp, resp) {
		t.Fatalf("grant pair round trip: %+v %+v", gotReq, gotResp)
	}

	// A full round trip: the client's Response, the server's Request and
	// the handler's Response must be allocated; little else may be.
	c := echoServer(t, func(r *Request) *Response {
		return &Response{UUID: r.Pool, Addr: 1 << 30, Size: r.Size, Writable: true}
	})
	if _, err := c.RoundTrip(req); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.RoundTrip(req); err != nil {
			t.Fatal(err)
		}
	}); n > 6 {
		t.Errorf("echo round trip: %v allocs, want at most 6", n)
	}
}

// TestLargeBlobRoundTrip sends blobs past every buffer of the path, both
// ways, over a pipe and over TCP (where they leave in a writev).
func TestLargeBlobRoundTrip(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serve := func(nc net.Conn) {
		sc := NewServerConn(nc)
		defer sc.Close()
		if _, err := sc.AcceptHello(); err != nil {
			return
		}
		for {
			req, err := sc.Recv()
			if err != nil {
				return
			}
			if sc.Send(&Response{ID: req.ID, Blob: req.Blob, Size: uint64(len(req.Blob))}) != nil {
				return
			}
		}
	}
	go func() {
		if nc, err := l.Accept(); err == nil {
			serve(nc)
		}
	}()
	tcp, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pc, ps := net.Pipe()
	go serve(ps)
	for name, nc := range map[string]net.Conn{"tcp": tcp, "pipe": pc} {
		c := NewConnHello(nc, Hello{})
		for _, n := range []int{1, inlineBlob + 1, 256 << 10, 5 << 20} {
			blob := bytes.Repeat([]byte{byte(n)}, n)
			blob[n-1] = 0xee
			resp, err := c.RoundTrip(&Request{Op: OpImportPool, Name: "p", Blob: blob})
			if err != nil {
				t.Fatalf("%s, %d bytes: %v", name, n, err)
			}
			if !bytes.Equal(resp.Blob, blob) {
				t.Fatalf("%s: %d-byte blob came back different (%d bytes)", name, n, len(resp.Blob))
			}
		}
		c.Close()
	}
}

// TestNonProtocolPeer: garbage — here what a version-1 client opens with
// — is refused by both ends with a typed error naming what was seen, and
// the client of a server that answers garbage does not hang.
func TestNonProtocolPeer(t *testing.T) {
	gobHello := []byte("\x3f\xff\x81\x03\x01\x01\x05Hello\x01\xff\x82\x00\x01\x06")
	client, server := net.Pipe()
	go func(c net.Conn) { c.Write(gobHello); c.Close() }(client)
	_, err := NewServerConn(server).RecvHello()
	var we *WireError
	if !errors.As(err, &we) || we.Region != "handshake" || !strings.Contains(err.Error(), "3f ff 81 03") {
		t.Fatalf("server on a gob Hello: %v", err)
	}

	client, server = net.Pipe()
	go func(s net.Conn) {
		io.CopyN(io.Discard, s, frameHdr+helloLen)
		s.Write(gobHello)
		s.Close()
	}(server)
	err = NewConn(client).Handshake()
	if !errors.As(err, &we) || we.Region != "handshake" {
		t.Fatalf("client on a gob Welcome: %v", err)
	}
}

// TestUndecodableRequestNamesOp: the error for a CRC-valid frame that
// does not decode says which op it claimed to be.
func TestUndecodableRequestNamesOp(t *testing.T) {
	payload := []byte{byte(OpFreePuddle), 1, 0x02, 0x00, 1, 2, 3} // UUID cut short
	frame := append(make([]byte, frameHdr), payload...)
	endFrame(frame, 0, nil)
	client, server := net.Pipe()
	go func() {
		client.Write(AppendHello(nil, &Hello{Magic: HandshakeMagic, Version: ProtocolVersion}))
		io.CopyN(io.Discard, client, 1) // the Welcome is on its way
		go io.Copy(io.Discard, client)
		client.Write(frame)
	}()
	sc := NewServerConn(server)
	if _, err := sc.AcceptHello(); err != nil {
		t.Fatal(err)
	}
	_, err := sc.Recv()
	var we *WireError
	if !errors.As(err, &we) || we.Region != "request" || we.Op != "FreePuddle" || !errors.Is(err, errTruncated) {
		t.Fatalf("Recv = %v", err)
	}
}

func TestOpNames(t *testing.T) {
	for op := OpNop; op <= OpResolveMig; op++ {
		if s := op.String(); s == "" || strings.HasPrefix(s, "Op(") {
			t.Errorf("op %d has no name", op)
		}
	}
	if got := (OpResolveMig + 1).String(); got != "Op(30)" {
		t.Errorf("unknown op prints %q", got)
	}
}

// checkFrame is the fuzz property: whatever the bytes, reading and
// decoding one frame of the given kind never panics, never allocates in
// proportion to a length it was merely told, and accepts only the
// canonical encoding of what it decoded.
func checkFrame(t *testing.T, kind uint8, stream []byte) {
	msg := []any{new(Hello), new(Welcome), new(Request), new(Response)}[kind%4]
	lo, hi := uint32(0), uint32(MaxFrame)
	if kind%4 == 0 {
		lo, hi = helloLen, helloLen
	}
	var (
		payload []byte
		owned   bool
		err     error
	)
	claim := uint32(0)
	if len(stream) >= 4 {
		claim = binary.LittleEndian.Uint32(stream)
	}
	read := func() {
		fr := readerOver(stream)
		payload, owned, err = fr.next(lo, hi)
	}
	if int(claim) > len(stream) {
		if got, limit := allocatedBy(read), uint64(16*len(stream)+128<<10); got > limit {
			t.Fatalf("a %d-byte stream claiming %d bytes cost %d bytes of heap, want at most %d", len(stream), claim, got, limit)
		}
	} else {
		read()
	}
	if err != nil {
		return
	}
	back, err := decodeLike(msg, payload, owned)
	if err != nil {
		return
	}
	consumed := stream[:frameHdr+len(payload)]
	if again := frameOf(t, back); !bytes.Equal(again, consumed) {
		t.Fatalf("accepted a non-canonical %T frame:\n   in %x\nagain %x", msg, consumed, again)
	}
	// Nothing decoded may be bigger than its wire image allows.
	if r, ok := back.(*Response); ok {
		if n := len(r.Names) + len(r.Types) + len(r.Puddles) + len(r.Blob); n > len(payload) {
			t.Fatalf("%d decoded elements out of a %d-byte payload", n, len(payload))
		}
	}
}

// FuzzWireFrame fuzzes the handshake, request and response readers. The
// seeds are the golden frames and their payloads; testdata/fuzz holds the
// hostile ones (a giant claim, a gob Hello, non-canonical encodings).
func FuzzWireFrame(f *testing.F) {
	for _, g := range goldens {
		frame := frameOf(f, g.msg)
		for kind := uint8(0); kind < 4; kind++ {
			f.Add(kind, frame)
			f.Add(kind, frame[frameHdr:])
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, stream []byte) {
		checkFrame(t, kind, stream)
		// And as a payload behind a header that fits it, so that the
		// decoders are reached without the mutator solving a CRC.
		frame := append(make([]byte, frameHdr), stream...)
		endFrame(frame, 0, nil)
		checkFrame(t, kind, frame)
	})
}

func BenchmarkWireGrantPair(b *testing.B) {
	req, resp := grantPair()
	buf := make([]byte, 0, 256)
	var gotReq Request
	var gotResp Response
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, _ := appendRequest(buf, req)
		if err := DecodeRequest(frame[frameHdr:], &gotReq, false); err != nil {
			b.Fatal(err)
		}
		frame, _ = appendResponse(buf, resp)
		if err := DecodeResponse(frame[frameHdr:], &gotResp, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEcho(b *testing.B) {
	client, server := net.Pipe()
	go func() {
		sc := NewServerConn(server)
		defer sc.Close()
		if _, err := sc.AcceptHello(); err != nil {
			return
		}
		for {
			req, err := sc.Recv()
			if err != nil {
				return
			}
			if sc.Send(&Response{ID: req.ID, UUID: req.Pool, Addr: 1 << 30, Size: req.Size, Writable: true}) != nil {
				return
			}
		}
	}()
	c := NewConnHello(client, Hello{})
	defer c.Close()
	req, _ := grantPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RoundTrip(req); err != nil {
			b.Fatal(err)
		}
	}
}
