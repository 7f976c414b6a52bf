package faults

import (
	"fmt"

	"ecstore/internal/model"
	"ecstore/internal/storage"
)

// CorruptionPlan describes seeded media damage for one site's chunk
// store. Each chunk is damaged independently: first a bit-flip roll,
// then (if that misses) a truncation roll, so BitFlipRate+TruncateRate
// up to 1.0 partitions the chunk population.
//
// Flips target payload bytes, where every flip is damage a sealed
// chunk's CRC must catch. The 24-byte header is left alone because not
// every flip there is damage — the reserved word and an unsealed chunk's
// length and CRC fields are unused — and Corrupt reports each ref it
// returns as damaged. Truncation removes tail payload bytes, which a
// sealed header's length field catches without reading the payload.
type CorruptionPlan struct {
	// BitFlipRate in [0,1] is the per-chunk probability of flipping one
	// uniformly chosen payload bit.
	BitFlipRate float64
	// TruncateRate in [0,1] is the per-chunk probability (given the flip
	// roll missed) of truncating the chunk's payload tail.
	TruncateRate float64
}

// Corrupt sweeps st's chunks in sorted-ref order and damages each
// according to plan, drawing every decision from in — a fixed seed
// replays the exact same damage set. It returns the refs damaged.
//
// The store must implement storage.RawMutator (both built-ins do);
// damage is applied to raw frames below the checksum layer, exactly
// like real bit rot. Chunks with empty payloads are skipped.
func Corrupt(st storage.Store, in *Injector, plan CorruptionPlan) ([]model.ChunkRef, error) {
	mut, ok := st.(storage.RawMutator)
	if !ok {
		return nil, fmt.Errorf("faults: store %T has no raw mutation hook", st)
	}
	refs, err := st.List()
	if err != nil {
		return nil, err
	}
	var damaged []model.ChunkRef
	for _, ref := range refs {
		flip := in.roll(plan.BitFlipRate)
		trunc := !flip && in.roll(plan.TruncateRate)
		if !flip && !trunc {
			continue
		}
		hit := false
		err := mut.MutateRaw(ref, func(raw []byte) []byte {
			const payOff = storage.FrameHeaderSize
			payLen := int64(len(raw)) - payOff
			if payLen <= 0 {
				return raw
			}
			hit = true
			if trunc {
				cut := 1 + in.pick(payLen)
				return raw[:int64(len(raw))-cut]
			}
			bit := in.pick(payLen * 8)
			raw[payOff+bit/8] ^= 1 << uint(bit%8)
			return raw
		})
		if err != nil {
			return damaged, err
		}
		if hit {
			damaged = append(damaged, ref)
		}
	}
	return damaged, nil
}
