// Package autotune searches the te schedule space for fast erasure-coding
// kernels, standing in for TVM's learning-based AutoScheduler (Ansor) that
// the paper's prototype tunes with (§6.1, 20 000 trials). The moving parts
// mirror Ansor's: a parameterized schedule space, candidate generation by
// random sampling and mutation of good schedules, a learned cost model
// trained online from measurements, and a measured leaderboard.
package autotune

import (
	"fmt"
	"math/rand"
	"runtime"

	"gemmec/internal/te"
)

// Params is one point in the schedule search space — the knobs §4.2 of the
// paper lists as the GEMM optimizations an ML library applies to the shared
// loop nest: cache tiling, loop reordering, reduction unrolling
// (multi-source fusion) and parallelization. Vectorization is always on;
// it is the word axis itself.
type Params struct {
	BlockWords int             `json:"block_words"`
	Fanin      int             `json:"fanin"`
	RowsOuter  bool            `json:"rows_outer"`
	Staged     bool            `json:"staged"`
	Parallel   te.ParallelAxis `json:"parallel"`
	Workers    int             `json:"workers"`
}

func (p Params) String() string {
	return fmt.Sprintf("{block=%dw fanin=%d rowsOuter=%v staged=%v parallel=%v workers=%d}",
		p.BlockWords, p.Fanin, p.RowsOuter, p.Staged, p.Parallel, p.Workers)
}

// Space is the set of legal Params for a problem of shape M x K x N
// (parity planes x data planes x words per plane).
type Space struct {
	M, K, N    int
	Blocks     []int // BlockWords candidates, all dividing N
	Fanins     []int // {1} plus powers of two dividing K
	MaxWorkers int
}

// NewSpace builds the default search space for a problem shape.
func NewSpace(m, k, n int) (Space, error) {
	if m <= 0 || k <= 0 || n <= 0 {
		return Space{}, fmt.Errorf("autotune: invalid shape %dx%dx%d", m, k, n)
	}
	s := Space{M: m, K: k, N: n, MaxWorkers: runtime.GOMAXPROCS(0)}
	// Tile candidates from 32 words (256 B) up to the full row, dividing N.
	for bw := 32; bw < n; bw *= 2 {
		if n%bw == 0 {
			s.Blocks = append(s.Blocks, bw)
		}
	}
	s.Blocks = append(s.Blocks, n)
	s.Fanins = []int{1}
	for _, f := range []int{2, 4, 8} {
		if k%f == 0 {
			s.Fanins = append(s.Fanins, f)
		}
	}
	return s, nil
}

// Contains reports whether p is a legal point of the space.
func (s Space) Contains(p Params) bool {
	okBlock := false
	for _, b := range s.Blocks {
		if b == p.BlockWords {
			okBlock = true
		}
	}
	okFanin := false
	for _, f := range s.Fanins {
		if f == p.Fanin {
			okFanin = true
		}
	}
	if p.Parallel == te.ParallelNone && p.Workers != 1 {
		return false
	}
	if p.Parallel == te.ParallelBlocks && !s.splitsColumns(p.BlockWords) {
		return false
	}
	return okBlock && okFanin && p.Workers >= 1 && p.Workers <= s.MaxWorkers
}

// splitsColumns reports whether a BlockWords tile splits the column axis.
// Block-parallel schedules need the split (Compile rejects them
// otherwise), so every sampler, enumerator and repair of the space asks
// this one predicate.
func (s Space) splitsColumns(blockWords int) bool { return blockWords < s.N }

// Default returns a sensible untuned starting point (whole-row tiles, no
// fusion, serial) — what a naive lowering would do.
func (s Space) Default() Params {
	return Params{BlockWords: s.N, Fanin: 1, RowsOuter: true, Parallel: te.ParallelNone, Workers: 1}
}

// Random samples a uniform point of the space.
func (s Space) Random(rng *rand.Rand) Params {
	p := Params{
		BlockWords: s.Blocks[rng.Intn(len(s.Blocks))],
		Fanin:      s.Fanins[rng.Intn(len(s.Fanins))],
		RowsOuter:  rng.Intn(2) == 0,
		Staged:     rng.Intn(2) == 0,
		Parallel:   te.ParallelNone,
		Workers:    1,
	}
	if s.MaxWorkers > 1 {
		axes := 2 // none, rows
		if s.splitsColumns(p.BlockWords) {
			axes = 3 // none, rows, blocks
		}
		switch rng.Intn(axes) {
		case 1:
			p.Parallel = te.ParallelRows
		case 2:
			p.Parallel = te.ParallelBlocks
		}
		if p.Parallel != te.ParallelNone {
			p.Workers = 2 + rng.Intn(s.MaxWorkers-1)
			if p.Workers > s.MaxWorkers {
				p.Workers = s.MaxWorkers
			}
		}
	}
	return p
}

// Mutate returns a neighbor of p with one knob changed — the evolutionary
// search's mutation operator.
func (s Space) Mutate(rng *rand.Rand, p Params) Params {
	q := p
	switch rng.Intn(5) {
	case 0:
		q.BlockWords = s.Blocks[rng.Intn(len(s.Blocks))]
	case 1:
		q.Fanin = s.Fanins[rng.Intn(len(s.Fanins))]
	case 2:
		q.RowsOuter = !q.RowsOuter
	case 3:
		q.Staged = !q.Staged
	case 4:
		if s.MaxWorkers > 1 {
			r := s.Random(rng)
			q.Parallel, q.Workers = r.Parallel, r.Workers
		}
	}
	if q.Parallel == te.ParallelBlocks && !s.splitsColumns(q.BlockWords) {
		q.Parallel = te.ParallelRows
	}
	return q
}

// Nearest maps an arbitrary parameter point onto the closest legal point of
// this space. Storage systems use it to transfer a schedule tuned for one
// stripe geometry to a similar one (same machine, different unit size)
// without retuning — the analogue of applying a TVM tuning log entry to a
// neighboring shape.
func (s Space) Nearest(p Params) Params {
	out := p
	// Block: nearest candidate in log-space.
	best, bestDiff := s.Blocks[0], 1<<62
	for _, b := range s.Blocks {
		d := b - p.BlockWords
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			best, bestDiff = b, d
		}
	}
	out.BlockWords = best
	// Fanin: largest legal fanin not exceeding the requested one.
	out.Fanin = 1
	for _, f := range s.Fanins {
		if f <= p.Fanin && f > out.Fanin {
			out.Fanin = f
		}
	}
	// Workers / parallel axis.
	if out.Workers > s.MaxWorkers {
		out.Workers = s.MaxWorkers
	}
	if out.Workers < 1 {
		out.Workers = 1
	}
	if s.MaxWorkers == 1 {
		out.Parallel = te.ParallelNone
	}
	if out.Parallel == te.ParallelBlocks && !s.splitsColumns(out.BlockWords) {
		out.Parallel = te.ParallelRows
	}
	if out.Parallel == te.ParallelNone {
		out.Workers = 1
	} else if out.Workers == 1 {
		out.Parallel = te.ParallelNone
	}
	return out
}

// Size returns the number of points in the space (for grid enumeration and
// trial budgeting).
func (s Space) Size() int {
	n := 0
	for _, bw := range s.Blocks {
		axes := 1 // rows
		if s.splitsColumns(bw) {
			axes = 2 // rows, blocks
		}
		n += 1 + axes*(s.MaxWorkers-1)
	}
	return n * len(s.Fanins) * 2 * 2
}

// All enumerates every point of the space (grid search).
func (s Space) All() []Params {
	var out []Params
	for _, bw := range s.Blocks {
		for _, f := range s.Fanins {
			for _, ro := range []bool{true, false} {
				for _, st := range []bool{false, true} {
					out = append(out, Params{BlockWords: bw, Fanin: f, RowsOuter: ro, Staged: st, Parallel: te.ParallelNone, Workers: 1})
					for w := 2; w <= s.MaxWorkers; w++ {
						out = append(out, Params{BlockWords: bw, Fanin: f, RowsOuter: ro, Staged: st, Parallel: te.ParallelRows, Workers: w})
						if s.splitsColumns(bw) {
							out = append(out, Params{BlockWords: bw, Fanin: f, RowsOuter: ro, Staged: st, Parallel: te.ParallelBlocks, Workers: w})
						}
					}
				}
			}
		}
	}
	return out
}

// Compiled bundles a built kernel with its operand tensors so callers can
// bind their own buffers (the core engine binds data/parity stripes
// directly).
type Compiled struct {
	A, B, C *te.Tensor
	Kernel  *te.Kernel
	Params  Params
}

// Compile realizes a parameter point as a te schedule — split, reorder,
// vectorize, unroll, parallel — and builds it. This function is the bridge
// between the search space and the compiler, the analogue of Ansor's
// sketch instantiation.
func Compile(m, k, n int, p Params) (*Compiled, error) {
	a, b, c := te.ECComputeDecl(m, k, n)
	s := te.CreateSchedule(c)
	axes := s.Leaf()
	i, j, rk := axes[0], axes[1], axes[2]

	var jo *te.IterVar
	wordAxis := j
	if p.BlockWords < n {
		var ji *te.IterVar
		var err error
		jo, ji, err = s.Split(j, p.BlockWords)
		if err != nil {
			return nil, fmt.Errorf("autotune: block split: %w", err)
		}
		wordAxis = ji
	}
	if err := s.Vectorize(wordAxis); err != nil {
		return nil, err
	}
	if p.Fanin > 1 {
		_, ki, err := s.Split(rk, p.Fanin)
		if err != nil {
			return nil, fmt.Errorf("autotune: fanin split: %w", err)
		}
		if err := s.Unroll(ki); err != nil {
			return nil, err
		}
	}
	if !p.RowsOuter && jo != nil {
		if err := s.Reorder(jo, i); err != nil {
			return nil, err
		}
	}
	switch p.Parallel {
	case te.ParallelRows:
		if err := s.Parallel(i); err != nil {
			return nil, err
		}
	case te.ParallelBlocks:
		if jo == nil {
			return nil, fmt.Errorf("autotune: block-parallel needs a split column axis")
		}
		if err := s.Parallel(jo); err != nil {
			return nil, err
		}
	}
	if p.Staged {
		s.CacheWrite()
	}
	kern, err := te.Build(s)
	if err != nil {
		return nil, err
	}
	kern.SetWorkers(p.Workers)
	return &Compiled{A: a, B: b, C: c, Kernel: kern, Params: p}, nil
}
