package main

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// payloadBase derives the generator state of one object from the
// workload seed and the object's key, so payload bytes are a function of
// (seed, key) alone.
func payloadBase(seed int64, key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key)) // hash.Hash never fails a Write
	return mix64(h.Sum64() ^ mix64(uint64(seed)))
}

// fillPayload writes the object's bytes [off, off+len(dst)) into dst.
// The stream is counter-based (word i depends only on base and i), so a
// range read is checked by regenerating just that range.
func fillPayload(dst []byte, base uint64, off int64) {
	var word [8]byte
	i := uint64(off / 8)
	skip := int(off % 8)
	for len(dst) > 0 {
		binary.LittleEndian.PutUint64(word[:], mix64(base+i*0x9e3779b97f4a7c15))
		n := copy(dst, word[skip:])
		dst = dst[n:]
		skip = 0
		i++
	}
}

// makePayload returns the whole object.
func makePayload(seed int64, key string, size int) []byte {
	buf := make([]byte, size)
	fillPayload(buf, payloadBase(seed, key), 0)
	return buf
}

// expect is what a read of one object (or a range of it) must return.
type expect struct {
	size int64
	crc  uint32
}

func expectOf(data []byte) expect {
	return expect{size: int64(len(data)), crc: crc32.Checksum(data, castagnoli)}
}

// expectRange regenerates [off, off+n) of the object and summarizes it.
func expectRange(seed int64, key string, off, n int64) expect {
	buf := make([]byte, n)
	fillPayload(buf, payloadBase(seed, key), off)
	return expectOf(buf)
}

// matches reports whether got is byte-for-byte what the generator
// produced: same length and same CRC-32C.
func (e expect) matches(got []byte) bool {
	return int64(len(got)) == e.size && crc32.Checksum(got, castagnoli) == e.crc
}
