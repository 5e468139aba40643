package stream

import (
	"slices"
	"sync"
	"sync/atomic"

	"soundboost/internal/acoustics"
)

// blockShift sets the audio block size: 2^14 samples per mic, 512 KiB
// per block of four float64 channels.
const (
	blockShift = 14
	blockLen   = 1 << blockShift
	blockMask  = blockLen - 1
)

// block holds blockLen consecutive filtered samples of every mic.
type block [acoustics.NumMics][blockLen]float64

// blocks recycles audio blocks across engines; blocksOut counts the
// blocks taken from it and not yet put back.
var (
	blocks    = sync.Pool{New: func() any { return new(block) }}
	blocksOut atomic.Int64
)

// blockStore is the engine's filtered audio: fixed blocks aligned to the
// absolute sample index, so sample i lives in block i>>blockShift at
// offset i&blockMask, and blocks[0] is block first. A stored sample is
// written once and never moved; cut returns whole blocks to the pool.
type blockStore struct {
	blocks []*block
	first  int
	// scratch holds, per mic, the copy of the last view that crossed a
	// block boundary.
	scratch [acoustics.NumMics][]float64
}

// put stores the samples x of every mic at absolute index i: the index
// after the last one stored, or any index into an empty store.
func (s *blockStore) put(i int, x [acoustics.NumMics]float64) {
	k := i >> blockShift
	if len(s.blocks) == 0 {
		s.first = k
	}
	for k-s.first >= len(s.blocks) {
		blocksOut.Add(1)
		s.blocks = append(s.blocks, blocks.Get().(*block))
	}
	b, off := s.blocks[k-s.first], i&blockMask
	for m, v := range x {
		b[m][off] = v
	}
}

// view returns mic m's samples [start, start+n), all stored. A range
// inside one block is a view into it; a longer one is copied into the
// mic's scratch buffer. Either is valid until the next view of mic m,
// cut or release.
func (s *blockStore) view(m, start, n int) []float64 {
	k, off := start>>blockShift-s.first, start&blockMask
	if off+n <= blockLen {
		return s.blocks[k][m][off : off+n : off+n]
	}
	buf := slices.Grow(s.scratch[m][:0], n)[:n]
	for i := 0; i < n; k, off = k+1, 0 {
		i += copy(buf[i:], s.blocks[k][m][off:])
	}
	s.scratch[m] = buf
	return buf
}

// cut returns to the pool every block that lies wholly below base.
func (s *blockStore) cut(base int) {
	d := min(base>>blockShift-s.first, len(s.blocks))
	if d <= 0 {
		return
	}
	for _, b := range s.blocks[:d] {
		blocks.Put(b)
	}
	blocksOut.Add(-int64(d))
	s.blocks = slices.Delete(s.blocks, 0, d)
	s.first += d
}

// release returns every block to the pool and drops the scratch.
func (s *blockStore) release() {
	for _, b := range s.blocks {
		blocks.Put(b)
	}
	blocksOut.Add(-int64(len(s.blocks)))
	*s = blockStore{}
}
