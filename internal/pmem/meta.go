package pmem

// Daemon metadata region geometry. The layout of the reserved meta
// region below the global puddle space is a device property — every
// daemon generation that opens the same image must agree on where the
// checkpoint and journal structures live — so the constants are owned
// here rather than by any one daemon implementation.
//
//	1 MiB   superblock (magic + dirty flag)
//	+4 KiB  reserved hole             (16 MiB, never written)
//	        metadata journal 0        (8 MiB, per-entity batches)
//	        metadata journal 1        (8 MiB, double buffer)
//	        checkpoint arena          (64 MiB, two halves of one image each)
//
// The hole held the two whole-state snapshot slots of the first
// metadata format, which no daemon reads any more. It stays reserved
// so every later structure keeps its address (moving the journals
// would strand every existing image) and costs nothing: the simulator
// allocates chunks on first touch. Everything fits far below the
// import staging area at 1 GiB.
const (
	// MetaBase is the start of the daemon metadata region (superblock).
	MetaBase Addr = 1 << 20

	// MetaReserved/MetaReservedBytes bound the reserved hole.
	MetaReserved      Addr   = MetaBase + PageSize
	MetaReservedBytes uint64 = 16 << 20

	// MetaJournalSize is the size of one metadata journal region.
	// MetaJournal0 and MetaJournal1 are a double buffer that lets a
	// checkpoint stream while appends continue into a fresh journal.
	MetaJournalSize uint64 = 8 << 20
	MetaJournal0    Addr   = MetaReserved + Addr(MetaReservedBytes)
	MetaJournal1    Addr   = MetaJournal0 + Addr(MetaJournalSize)

	// MetaCkptBase/MetaCkptSize bound the chunked checkpoint arena.
	// The arena's two halves (32 MiB each), anchored at its base and
	// midpoint, each hold at most one checkpoint: a full registry image
	// streamed as CRC-guarded chunks and published by a commit chunk.
	// Checkpoints alternate between the halves.
	MetaCkptBase Addr   = MetaJournal1 + Addr(MetaJournalSize)
	MetaCkptSize uint64 = 64 << 20

	// MetaEnd is the first address past the metadata region.
	MetaEnd Addr = MetaCkptBase + Addr(MetaCkptSize)
)
