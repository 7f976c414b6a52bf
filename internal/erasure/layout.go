package erasure

import (
	"errors"
	"fmt"
)

// ErrRangeOutOfBounds reports a byte range outside the block; core
// re-exports it, so the module has one sentinel for the condition.
var ErrRangeOutOfBounds = errors.New("erasure: range out of bounds")

// Layout describes how one block's bytes map onto its k data chunks, so
// range reads can fetch only the chunk windows a byte range touches.
//
// Two layouts exist:
//
//   - Contiguous (StripeUnit == 0, the Split/Join layout): chunk c holds
//     block bytes [c*ChunkSize, (c+1)*ChunkSize). A range confined to one
//     data chunk needs only a small window; a range crossing chunks
//     degrades to whole-chunk windows, because a degraded decode of any
//     window must read the same window of k chunks.
//
//   - Striped (StripeUnit > 0, the streaming layout): the block is cut
//     into stripes of k*StripeUnit bytes; stripe t contributes the
//     StripeUnit bytes at offset t*StripeUnit of every chunk. Any byte
//     range then maps to one contiguous window, identical across chunks,
//     proportional to the range length rather than the block size.
//
// Because RS parity is computed byte-position-wise across chunks
// (parity[p][x] = Σ_c g[p][c]·chunk[c][x]), the bytes [lo, hi) of all
// k+r chunks form a valid codeword for every window, in both layouts:
// fetching a window of any k chunks suffices to reconstruct that window
// of all chunks, which is what makes stripe-range reads possible without
// whole-chunk repair reads.
type Layout struct {
	// K is the number of data chunks.
	K int
	// BlockSize is the original block length in bytes.
	BlockSize int64
	// ChunkSize is the stored per-chunk length in bytes.
	ChunkSize int64
	// StripeUnit selects the layout; see the type comment.
	StripeUnit int64
}

// Validate checks the layout's internal consistency.
func (l Layout) Validate() error {
	if l.K < 1 || l.BlockSize < 0 || l.ChunkSize < 1 {
		return fmt.Errorf("erasure: invalid layout %+v", l)
	}
	if l.StripeUnit < 0 {
		return fmt.Errorf("erasure: negative stripe unit %d", l.StripeUnit)
	}
	if l.StripeUnit > 0 && l.ChunkSize%l.StripeUnit != 0 {
		return fmt.Errorf("erasure: chunk size %d not a multiple of stripe unit %d", l.ChunkSize, l.StripeUnit)
	}
	if l.BlockSize > int64(l.K)*l.ChunkSize {
		return fmt.Errorf("erasure: block size %d exceeds %d x %d-byte chunks", l.BlockSize, l.K, l.ChunkSize)
	}
	return nil
}

// Stripes returns how many stripes the block stores: ChunkSize/StripeUnit
// for striped blocks, 1 for contiguous blocks (the whole chunk is one
// addressable window).
func (l Layout) Stripes() int64 {
	if l.StripeUnit > 0 {
		return l.ChunkSize / l.StripeUnit
	}
	return 1
}

// Window maps the byte range [off, off+n) of the block to the per-chunk
// byte window [lo, hi) that must be fetched from each of the k chunks
// used by the decode. The same window applies to every chunk (data or
// parity); decoding the k windows reconstructs the window of every data
// chunk, from which Gather extracts the requested bytes.
//
// n == 0 yields the empty window (0, 0). The range must lie inside the
// block; callers clamp against BlockSize first.
func (l Layout) Window(off, n int64) (lo, hi int64, err error) {
	if off < 0 || n < 0 || off > l.BlockSize || n > l.BlockSize-off {
		return 0, 0, fmt.Errorf("%w: [%d, +%d) of %d-byte block", ErrRangeOutOfBounds, off, n, l.BlockSize)
	}
	if n == 0 {
		return 0, 0, nil
	}
	if l.StripeUnit > 0 {
		w := int64(l.K) * l.StripeUnit
		lo = off / w * l.StripeUnit
		hi = (off + n + w - 1) / w * l.StripeUnit
		if hi > l.ChunkSize {
			hi = l.ChunkSize
		}
		return lo, hi, nil
	}
	first := off / l.ChunkSize
	last := (off + n - 1) / l.ChunkSize
	if first == last {
		lo = off - first*l.ChunkSize
		return lo, lo + n, nil
	}
	// The range crosses data chunks: a degraded decode needs the same
	// window of k chunks, so the union degrades to whole chunks.
	return 0, l.ChunkSize, nil
}

// WindowStripes returns how many stripes the window [lo, hi) spans: the
// quantity range reads decode, reported by range_stripes_decoded_total.
// A contiguous block counts as one stripe per non-empty window.
func (l Layout) WindowStripes(lo, hi int64) int64 {
	if hi <= lo {
		return 0
	}
	if l.StripeUnit > 0 {
		return (hi - lo + l.StripeUnit - 1) / l.StripeUnit
	}
	return 1
}

// Gather copies the block bytes [off, off+len(dst)) out of win, the
// decoded window: the concatenation, for each data chunk c in [0, K), of
// that chunk's bytes [lo, lo+w) where w = len(win)/K. win is exactly
// what DecodeInto produces when handed k chunk windows of w bytes each.
func (l Layout) Gather(dst []byte, win []byte, lo, off int64) error {
	if l.K == 0 || len(win)%l.K != 0 {
		return fmt.Errorf("erasure: window of %d bytes not divisible by k=%d", len(win), l.K)
	}
	w := int64(len(win) / l.K)
	n := int64(len(dst))
	if n == 0 {
		return nil
	}
	if off < 0 || off+n > l.BlockSize {
		return fmt.Errorf("%w: gather [%d, %d) of %d-byte block", ErrRangeOutOfBounds, off, off+n, l.BlockSize)
	}
	if l.StripeUnit == 0 {
		// Chunk c's window covers block bytes [c*ChunkSize+lo, ...+w).
		for c := 0; c < l.K; c++ {
			blockLo := int64(c)*l.ChunkSize + lo
			if err := gatherSeg(dst, win[int64(c)*w:(int64(c)+1)*w], blockLo, off); err != nil {
				return err
			}
		}
		return nil
	}
	// Stripe t's segment for chunk c covers block bytes
	// [t*K*unit + c*unit, ...+unit) and sits at window offset
	// c*w + (t*unit - lo).
	unit := l.StripeUnit
	for t := lo / unit; t*unit < lo+w; t++ {
		for c := 0; c < l.K; c++ {
			blockLo := t*int64(l.K)*unit + int64(c)*unit
			winOff := int64(c)*w + (t*unit - lo)
			if err := gatherSeg(dst, win[winOff:winOff+unit], blockLo, off); err != nil {
				return err
			}
		}
	}
	return nil
}

// StripedChunkSize returns the per-chunk stored size of a striped block
// of blockSize bytes: ceil(blockSize / (k*unit)) stripes of unit bytes
// per chunk, tail stripe zero-padded, and at least one stripe even for
// an empty block (mirroring ChunkSize's one-byte minimum: the size
// registered in metadata always equals the bytes actually stored).
func StripedChunkSize(k int, blockSize, unit int64) int64 {
	w := int64(k) * unit
	stripes := (blockSize + w - 1) / w
	if stripes < 1 {
		stripes = 1
	}
	return stripes * unit
}

// gatherSeg copies the intersection of seg — which holds block bytes
// [blockLo, blockLo+len(seg)) — with the destination range
// [off, off+len(dst)) into dst.
func gatherSeg(dst, seg []byte, blockLo, off int64) error {
	segHi := blockLo + int64(len(seg))
	dstHi := off + int64(len(dst))
	from := max(blockLo, off)
	to := min(segHi, dstHi)
	if from >= to {
		return nil
	}
	copy(dst[from-off:to-off], seg[from-blockLo:to-blockLo])
	return nil
}
