package reloc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"

	"puddles/internal/pmem"
	"puddles/internal/ptypes"
	"puddles/internal/uid"
)

// sample is a two-puddle container with fixed identities, so its
// encoding can be pinned byte for byte.
func sample() *Container {
	root := uid.UUID{0: 0x02, 15: 0x0f}
	return &Container{
		Version:  ContainerVersion,
		PoolName: "p",
		PoolUUID: uid.UUID{0: 0x01, 15: 0x0f},
		RootUUID: root,
		Types: []ptypes.TypeInfo{
			{ID: 1, Name: "a", Size: 16, Ptrs: []ptypes.PtrField{{Offset: 8}}},
		},
		Puddles: []PuddleImage{
			{UUID: root, Addr: 1 << 40, Size: pmem.PageSize, Kind: 1, Content: make([]byte, pmem.PageSize)},
			{UUID: uid.UUID{0: 0x03, 15: 0x0f}, Addr: (1 << 40) + 2*pmem.PageSize, Size: pmem.PageSize, Kind: 2, Content: make([]byte, pmem.PageSize)},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := sample()
	c.Puddles[0].Content[100] = 0xAB
	blob, err := c.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.PoolName != "p" || got.RootUUID != c.RootUUID || len(got.Puddles) != 2 {
		t.Fatalf("decoded = %+v", got)
	}
	if !bytes.Equal(got.Puddles[0].Content, c.Puddles[0].Content) {
		t.Fatal("content corrupted")
	}
	if len(got.Types) != 1 || got.Types[0].Name != "a" {
		t.Fatal("types lost")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeBytes([]byte("not a container")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeBytes(nil); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Container)
	}{
		{"bad version", func(c *Container) { c.Version = 99 }},
		{"no puddles", func(c *Container) { c.Puddles = nil }},
		{"size mismatch", func(c *Container) { c.Puddles[0].Size = 1 }},
		{"unaligned", func(c *Container) { c.Puddles[0].Addr += 3 }},
		{"missing root", func(c *Container) { c.RootUUID = uid.New() }},
		{"duplicate uuid", func(c *Container) { c.Puddles[1].UUID = c.Puddles[0].UUID }},
	}
	for _, tc := range cases {
		c := sample()
		tc.mod(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestFindByOldAddr(t *testing.T) {
	c := sample()
	if i := c.FindByOldAddr(pmem.Addr(c.Puddles[0].Addr)); i != 0 {
		t.Fatalf("start = %d", i)
	}
	if i := c.FindByOldAddr(pmem.Addr(c.Puddles[1].Addr + 100)); i != 1 {
		t.Fatalf("mid = %d", i)
	}
	if i := c.FindByOldAddr(pmem.Addr(c.Puddles[0].Addr + c.Puddles[0].Size)); i != -1 {
		t.Fatalf("gap = %d", i)
	}
}

func TestQuickContentRoundTrip(t *testing.T) {
	f := func(seed []byte) bool {
		c := sample()
		copy(c.Puddles[0].Content, seed)
		blob, err := c.EncodeBytes()
		if err != nil {
			return false
		}
		got, err := DecodeBytes(blob)
		if err != nil {
			return false
		}
		return bytes.Equal(got.Puddles[0].Content, c.Puddles[0].Content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeGolden pins the container format (ContainerVersion 1): the
// sample's encoding is exactly the bytes an earlier release wrote — the
// header below, then each puddle's 40-byte descriptor and raw content —
// whether the contents come from Content or straight from a load
// callback, and EncodedLen is its exact length.
func TestEncodeGolden(t *testing.T) {
	const (
		head = "5055444c45585031" + "0100000000000000" + // magic, version
			"0100000000000000" + "70" + // pool name "p"
			"0100000000000000000000000000000f" + "0200000000000000000000000000000f" + // pool, root
			"0100000000000000" + // one type:
			"0100000000000000" + "0100000000000000" + "61" + "1000000000000000" + // id 1, "a", size 16,
			"0100000000000000" + "0800000000000000" + // one pointer at 8
			"0200000000000000" // two puddles
		digest = "ab7575dd3b5d4ddb3aa4dcf86a38fbc0c0387a60ab96e9862e45a46b80d64402"
	)
	if ContainerVersion != 1 {
		t.Fatalf("ContainerVersion = %d: a format change must bump it and re-pin this test", ContainerVersion)
	}
	c := sample()
	for i := range c.Puddles {
		for j := range c.Puddles[i].Content {
			c.Puddles[i].Content[j] = byte(i*31 + j)
		}
	}
	plain, err := c.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(plain[:len(head)/2]); got != head {
		t.Fatalf("header bytes\n got %s\nwant %s", got, head)
	}
	if sum := sha256.Sum256(plain); hex.EncodeToString(sum[:]) != digest || len(plain) != 8386 {
		t.Fatalf("encoding: %d bytes, sha256 %x; want 8386 bytes, %s", len(plain), sum, digest)
	}
	if len(plain) != c.EncodedLen() {
		t.Fatalf("EncodedLen = %d, encoding is %d bytes", c.EncodedLen(), len(plain))
	}
	contents := make([][]byte, len(c.Puddles))
	for i := range c.Puddles {
		contents[i], c.Puddles[i].Content = c.Puddles[i].Content, nil
	}
	loaded := c.EncodeFrom(func(i int, dst []byte) {
		if len(dst) != len(contents[i]) {
			t.Fatalf("load(%d) got a %d-byte slot, want %d", i, len(dst), len(contents[i]))
		}
		copy(dst, contents[i])
	})
	if !bytes.Equal(loaded, plain) || cap(loaded) != len(plain) {
		t.Fatalf("EncodeFrom(load) diverged from EncodeBytes (%d/%d vs %d bytes)", len(loaded), cap(loaded), len(plain))
	}
	got, err := DecodeBytes(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Puddles[1].Content, contents[1]) {
		t.Fatal("loaded content corrupted")
	}
}
