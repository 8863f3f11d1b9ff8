package reloc

import (
	"encoding/binary"
	"fmt"
	"io"

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

// encodeBinary writes the container. content, when non-nil, supplies
// puddle i's Size bytes directly into w in place of the materialized
// Content slice — the streaming path (EncodeStream) large-pool
// exports and migration use so the whole image never sits in memory.
func (c *Container) encodeBinary(w io.Writer, content func(i int, w io.Writer) error) error {
	var scratch [8]byte
	wU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := w.Write(scratch[:])
		return err
	}
	wBytes := func(b []byte) error {
		if err := wU64(uint64(len(b))); err != nil {
			return err
		}
		_, err := w.Write(b)
		return err
	}
	if err := wU64(containerMagic); err != nil {
		return err
	}
	if err := wU64(uint64(c.Version)); err != nil {
		return err
	}
	if err := wBytes([]byte(c.PoolName)); err != nil {
		return err
	}
	if _, err := w.Write(c.PoolUUID[:]); err != nil {
		return err
	}
	if _, err := w.Write(c.RootUUID[:]); err != nil {
		return err
	}
	if err := wU64(uint64(len(c.Types))); err != nil {
		return err
	}
	for _, ti := range c.Types {
		if err := wU64(uint64(ti.ID)); err != nil {
			return err
		}
		if err := wBytes([]byte(ti.Name)); err != nil {
			return err
		}
		if err := wU64(uint64(ti.Size)); err != nil {
			return err
		}
		if err := wU64(uint64(len(ti.Ptrs))); err != nil {
			return err
		}
		for _, p := range ti.Ptrs {
			if err := wU64(uint64(p.Offset)); err != nil {
				return err
			}
		}
	}
	if err := wU64(uint64(len(c.Puddles))); err != nil {
		return err
	}
	for i, p := range c.Puddles {
		if _, err := w.Write(p.UUID[:]); err != nil {
			return err
		}
		if err := wU64(p.Addr); err != nil {
			return err
		}
		if err := wU64(p.Size); err != nil {
			return err
		}
		if err := wU64(p.Kind); err != nil {
			return err
		}
		if content != nil {
			if err := content(i, w); err != nil {
				return err
			}
			continue
		}
		if uint64(len(p.Content)) != p.Size {
			return fmt.Errorf("reloc: puddle content/size mismatch")
		}
		if _, err := w.Write(p.Content); err != nil {
			return err
		}
	}
	return nil
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
