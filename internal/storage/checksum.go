package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"ecstore/internal/model"
)

// Every chunk at rest carries a fixed 24-byte header in front of its
// payload (DESIGN.md §14):
//
//	offset 0  magic    u32  0x45434B31 ("ECK1")
//	offset 4  flags    u32  bit0: sealed (length+crc are authoritative)
//	offset 8  length   u64  payload bytes (sealed chunks only; else 0)
//	offset 16 crc      u32  CRC32-C (Castagnoli) of the payload
//	offset 20 reserved u32  zero
//
// Whole-chunk writes (Put) seal immediately: length and CRC are computed
// before the bytes hit the store. Streamed chunks (PutAt) grow under an
// unsealed header — their commit point is the block's catalog
// registration, and the scrubber seals them on its first sweep. Reads
// verify sealed chunks: Get recomputes the CRC, GetAt checks structural
// integrity (magic, stored length vs actual bytes — which catches
// truncation without reading the rest of the chunk) and upgrades to a
// full CRC check when the window covers the whole payload. Bit rot
// inside a partial window is the scrubber's job (Verify reads it all).
//
// Every writer lays the header down first, so stored bytes without the
// magic — a flipped bit, a file cut below 24 bytes — are damage and read
// as ErrCorruptChunk like any other.
const (
	chunkMagic uint32 = 0x45434B31
	headerSize        = 24
	flagSealed uint32 = 1 << 0
	offFlags          = 4
	offLength         = 8
	offCRC            = 16
)

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptChunk reports a chunk whose stored bytes contradict its
// header: CRC mismatch, truncation, or a mangled header. Callers treat
// it like a missing chunk (reconstruct from peers) after deleting the
// bad copy.
var ErrCorruptChunk = errors.New("storage: chunk corrupt")

// ChunkCheck is the verification record of one stored chunk.
type ChunkCheck struct {
	// Sealed reports whether the header carries an authoritative
	// length+CRC (true for all whole-chunk writes; streamed chunks stay
	// unsealed until scrubbed).
	Sealed bool
	// Length is the payload size in bytes.
	Length int64
	// CRC is the payload's CRC32-C (zero while unsealed).
	CRC uint32
}

// Checksum returns the CRC32-C of a payload — the value stored in chunk
// headers and carried by the verify RPC.
func Checksum(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli)
}

// sealFrame returns a framed copy of payload with a sealed header.
func sealFrame(payload []byte) []byte {
	raw := make([]byte, headerSize+len(payload))
	writeHeader(raw, flagSealed, uint64(len(payload)), Checksum(payload))
	copy(raw[headerSize:], payload)
	return raw
}

// unsealedFrame returns a framed copy of payload with an unsealed header.
func unsealedFrame(payload []byte) []byte {
	raw := make([]byte, headerSize+len(payload))
	writeHeader(raw, 0, 0, 0)
	copy(raw[headerSize:], payload)
	return raw
}

func writeHeader(raw []byte, flags uint32, length uint64, crc uint32) {
	binary.BigEndian.PutUint32(raw[0:], chunkMagic)
	binary.BigEndian.PutUint32(raw[offFlags:], flags)
	binary.BigEndian.PutUint64(raw[offLength:], length)
	binary.BigEndian.PutUint32(raw[offCRC:], crc)
	binary.BigEndian.PutUint32(raw[20:], 0)
}

// frameInfo is a raw stored frame's parsed header.
type frameInfo struct {
	sealed bool
	length uint64 // header length field (sealed only)
	crc    uint32
}

// payloadOf splits a raw frame into its header info and payload view
// without touching the payload.
func payloadOf(ref model.ChunkRef, raw []byte) ([]byte, frameInfo, error) {
	if len(raw) < headerSize || binary.BigEndian.Uint32(raw) != chunkMagic {
		return nil, frameInfo{}, fmt.Errorf("%w: %s has no chunk header in its %d stored bytes", ErrCorruptChunk, ref, len(raw))
	}
	flags := binary.BigEndian.Uint32(raw[offFlags:])
	return raw[headerSize:], frameInfo{
		sealed: flags&flagSealed != 0,
		length: binary.BigEndian.Uint64(raw[offLength:]),
		crc:    binary.BigEndian.Uint32(raw[offCRC:]),
	}, nil
}

// checkFrame verifies a whole raw frame: structural integrity always,
// CRC when sealed. It returns the verification record.
func checkFrame(ref model.ChunkRef, raw []byte) (ChunkCheck, error) {
	payload, info, err := payloadOf(ref, raw)
	if err != nil {
		return ChunkCheck{}, err
	}
	if !info.sealed {
		return ChunkCheck{Length: int64(len(payload))}, nil
	}
	if info.length != uint64(len(payload)) {
		return ChunkCheck{}, fmt.Errorf("%w: %s length %d, stored %d bytes",
			ErrCorruptChunk, ref, info.length, len(payload))
	}
	if got := Checksum(payload); got != info.crc {
		return ChunkCheck{}, fmt.Errorf("%w: %s crc %08x, want %08x",
			ErrCorruptChunk, ref, got, info.crc)
	}
	return ChunkCheck{Sealed: true, Length: int64(len(payload)), CRC: info.crc}, nil
}

// FrameHeaderSize is the offset of the payload inside a raw stored
// frame. The fault injector uses it to aim bit flips at payload bytes.
const FrameHeaderSize = headerSize

// RawMutator is the corruption hook the fault injector uses: it hands
// the mutation function the chunk's raw stored frame (header included)
// and stores whatever comes back, bypassing all checksumming — exactly
// what a flipped bit on a disk platter does. Both built-in stores
// implement it; it is deliberately not part of the Store interface.
type RawMutator interface {
	MutateRaw(ref model.ChunkRef, mutate func([]byte) []byte) error
}
