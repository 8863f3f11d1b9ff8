package reloc

import (
	"encoding/binary"
	"fmt"

	"puddles/internal/ptypes"
	"puddles/internal/uid"
)

// Binary container codec. Exported pools are the paper's raw
// in-memory representation: puddle contents are written verbatim and
// decoded by aliasing into the input buffer — no per-object
// serialization, no reflection, no content copies. (An earlier gob
// codec spent more time allocating than the PMDK comparison spent
// deep-copying, inverting the Fig. 14 result for the wrong reason.)

const containerMagic = 0x31505845_4c445550 // "PUDLEXP1"

// EncodedLen returns the exact length of the container's encoding.
func (c *Container) EncodedLen() int {
	n := 3*8 + len(c.PoolName) + 2*16 + 8
	for _, ti := range c.Types {
		n += minTypeBytes + len(ti.Name) + 8*len(ti.Ptrs)
	}
	n += 8
	for _, p := range c.Puddles {
		n += minPuddleBytes + int(p.Size)
	}
	return n
}

// EncodeFrom encodes the container into one buffer of exactly
// EncodedLen bytes. load(i, dst) fills puddle i's bytes straight into
// their slot (len(dst) == Puddles[i].Size), so an export reads each
// puddle off the device with no buffer of its own; Content is ignored.
func (c *Container) EncodeFrom(load func(i int, dst []byte)) []byte {
	b := make([]byte, 0, c.EncodedLen())
	b = binary.LittleEndian.AppendUint64(b, containerMagic)
	b = binary.LittleEndian.AppendUint64(b, uint64(c.Version))
	b = appendBytes(b, c.PoolName)
	b = append(b, c.PoolUUID[:]...)
	b = append(b, c.RootUUID[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(c.Types)))
	for _, ti := range c.Types {
		b = binary.LittleEndian.AppendUint64(b, uint64(ti.ID))
		b = appendBytes(b, ti.Name)
		b = binary.LittleEndian.AppendUint64(b, uint64(ti.Size))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(ti.Ptrs)))
		for _, p := range ti.Ptrs {
			b = binary.LittleEndian.AppendUint64(b, uint64(p.Offset))
		}
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(c.Puddles)))
	for i, p := range c.Puddles {
		b = append(b, p.UUID[:]...)
		b = binary.LittleEndian.AppendUint64(b, p.Addr)
		b = binary.LittleEndian.AppendUint64(b, p.Size)
		b = binary.LittleEndian.AppendUint64(b, p.Kind)
		b = b[:len(b)+int(p.Size)]
		load(i, b[len(b)-int(p.Size):])
	}
	return b
}

func appendBytes(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// decodeBinary parses blob. Puddle contents ALIAS blob: callers must
// not mutate the blob while the container is alive.
func decodeBinary(blob []byte) (*Container, error) {
	r := &sliceReader{b: blob}
	if m, err := r.u64(); err != nil || m != containerMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadContainer)
	}
	var c Container
	v, err := r.u64()
	if err != nil {
		return nil, err
	}
	c.Version = int(v)
	name, err := r.bytes()
	if err != nil {
		return nil, err
	}
	c.PoolName = string(name)
	if err := r.uuid(&c.PoolUUID); err != nil {
		return nil, err
	}
	if err := r.uuid(&c.RootUUID); err != nil {
		return nil, err
	}
	nTypes, err := r.u64()
	if err != nil {
		return nil, err
	}
	if nTypes > r.left()/minTypeBytes {
		return nil, fmt.Errorf("%w: type count %d exceeds the input", ErrBadContainer, nTypes)
	}
	c.Types = make([]ptypes.TypeInfo, nTypes)
	for i := range c.Types {
		id, err := r.u64()
		if err != nil {
			return nil, err
		}
		tn, err := r.bytes()
		if err != nil {
			return nil, err
		}
		sz, err := r.u64()
		if err != nil {
			return nil, err
		}
		nPtrs, err := r.u64()
		if err != nil {
			return nil, err
		}
		if nPtrs > r.left()/8 {
			return nil, fmt.Errorf("%w: pointer count %d exceeds the input", ErrBadContainer, nPtrs)
		}
		ptrs := make([]ptypes.PtrField, nPtrs)
		for j := range ptrs {
			off, err := r.u64()
			if err != nil {
				return nil, err
			}
			ptrs[j] = ptypes.PtrField{Offset: uint32(off)}
		}
		c.Types[i] = ptypes.TypeInfo{ID: ptypes.TypeID(id), Name: string(tn), Size: uint32(sz), Ptrs: ptrs}
	}
	nPud, err := r.u64()
	if err != nil {
		return nil, err
	}
	if nPud > r.left()/minPuddleBytes {
		return nil, fmt.Errorf("%w: puddle count %d exceeds the input", ErrBadContainer, nPud)
	}
	c.Puddles = make([]PuddleImage, nPud)
	for i := range c.Puddles {
		p := &c.Puddles[i]
		if err := r.uuid(&p.UUID); err != nil {
			return nil, err
		}
		if p.Addr, err = r.u64(); err != nil {
			return nil, err
		}
		if p.Size, err = r.u64(); err != nil {
			return nil, err
		}
		if p.Kind, err = r.u64(); err != nil {
			return nil, err
		}
		if p.Content, err = r.take(p.Size); err != nil {
			return nil, err
		}
	}
	return &c, nil
}

// The smallest encodings of one type (id, name length, size, pointer
// count) and one puddle (uuid, addr, size, kind): a count is refused
// before anything is allocated for it unless the rest of the input could
// hold that many, so a short input cannot make the decoder allocate much
// more than its own length.
const (
	minTypeBytes   = 4 * 8
	minPuddleBytes = 16 + 3*8
)

type sliceReader struct {
	b   []byte
	off uint64
}

// left returns the bytes not yet read.
func (r *sliceReader) left() uint64 { return uint64(len(r.b)) - r.off }

func (r *sliceReader) take(n uint64) ([]byte, error) {
	if r.off+n > uint64(len(r.b)) || r.off+n < r.off {
		return nil, fmt.Errorf("%w: truncated", ErrBadContainer)
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out, nil
}

func (r *sliceReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *sliceReader) bytes() ([]byte, error) {
	n, err := r.u64()
	if err != nil {
		return nil, err
	}
	if n > 1<<30 {
		return nil, fmt.Errorf("%w: absurd length", ErrBadContainer)
	}
	return r.take(n)
}

func (r *sliceReader) uuid(u *uid.UUID) error {
	b, err := r.take(16)
	if err != nil {
		return err
	}
	copy(u[:], b)
	return nil
}
