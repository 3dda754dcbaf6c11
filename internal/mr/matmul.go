package mr

import (
	"errors"
	"slices"

	"repro/internal/graph"
)

// Fact 2: two ℓ×ℓ matrices can be multiplied in O(log_ML n + ℓ³/(MG·√ML))
// rounds. The paper uses min-plus ("tropical") products to square the
// quotient graph's distance matrix O(log ℓ) times, obtaining its diameter
// within the memory budget of Theorem 4. The product here is Fact 2's
// blocked scheme.
//
// Blocking. Both matrices are cut into b×b blocks, ⌈ℓ/b⌉ to a side. Round 1
// keys every finite entry by a block triple (I, J, K): an A entry (i, k)
// goes to every J whose B block (K, J) holds a finite entry, a B entry
// (k, j) to every I whose A block (I, K) does. The driver holds both
// matrices, so it computes that O((ℓ/b)²) occupancy table itself. Each
// reducer multiplies its A block by its B block locally and emits at most
// b² partial minima, one per output cell; the following rounds take the
// minimum per cell, at most 2b² partials a reducer (one round whenever
// ⌈ℓ/b⌉ ≤ 2b², the log_ML term of Fact 2 otherwise). With one min round a
// product shuffles at most 2·⌈ℓ/b⌉·ℓ² + ⌈ℓ/b⌉·ℓ² pairs, against ℓ³ for an
// unblocked product that emits one pair per (i, k, j).
//
// Block side. b = ⌊√(ML/2)⌋ capped at ℓ when Config.ML > 0, so that a
// round-1 group — two b×b blocks — fits the local memory; b = ⌊√ℓ⌋
// otherwise, which keeps every reducer of the product at ≤ 2b² ≤ 2ℓ pairs.
// Every b is at least 1.
//
// Changed-row frontier. APSPByRepeatedSquaring feeds the A side of a
// squaring only the rows the previous squaring lowered. A row left
// unchanged is closed, and it stays closed: if A′ = A ⊗ A and
// A′[i][·] = A[i][·], then for every k and j
//
//	A′[i][k] + A′[k][j] = A[i][k] + min_m (A[k][m] + A[m][j])
//	                    ≥ min_m (A[i][m] + A[m][j]) = A′[i][j],
//
// so row i of A′ ⊗ A′ is row i of A′ again. Each squaring's matrix is thus
// still the exact square of the last one.
//
// Stop rule. The squarings stop when one lowers no row (every later one
// would repeat the matrix), or after ⌈log₂ ℓ⌉ of them, which cover every
// shortest path of at most ℓ − 1 arcs. The result is cell for cell the
// matrix of ⌈log₂ ℓ⌉ full squarings, in no more squarings.
//
// Every reducer is pure, so all rounds run concurrently across the
// engine's reducer shards.

// Inf is the "no path" value in distance matrices. It is large enough that
// Inf + Inf does not overflow int64.
const Inf int64 = 1 << 40

// MinPlusProduct computes C[i][j] = min_k (A[i][k] + B[k][j]) of two ℓ×ℓ
// row-major matrices with the blocked scheme above. Entries are distances:
// non-negative, or Inf for none. Cells with no finite sum are Inf.
func (e *Engine) MinPlusProduct(a, b []int64, l int) ([]int64, error) {
	return e.minPlus(a, b, l, nil, nil)
}

// blockSide returns the side b of the product's square blocks for ℓ×ℓ
// matrices.
func (e *Engine) blockSide(l int) int {
	x := int64(l)
	if e.cfg.ML > 0 {
		x = e.cfg.ML / 2
	}
	b := 1
	for b < l && int64(b+1)*int64(b+1) <= x {
		b++
	}
	return b
}

// minPlus is MinPlusProduct restricted to the rows i of A with open[i]
// (every row when open is nil); the other rows of C are Inf. It writes C
// into c, or into a fresh matrix when c is nil.
func (e *Engine) minPlus(a, b []int64, l int, open []bool, c []int64) ([]int64, error) {
	if len(a) != l*l || len(b) != l*l {
		return nil, errors.New("mr: matrix size mismatch")
	}
	if l == 0 {
		return nil, nil
	}
	bs := e.blockSide(l)
	nb := (l + bs - 1) / bs
	// finA[I*nb+K] / finB[K*nb+J]: the block's finite entries. Triple
	// (I, J, K) gets both its blocks exactly when both are occupied, so the
	// round's input size is known before it is built.
	finA, finB := make([]int, nb*nb), make([]int, nb*nb)
	for i := 0; i < l; i++ {
		for k := 0; k < l; k++ {
			if (open == nil || open[i]) && a[i*l+k] < Inf {
				finA[i/bs*nb+k/bs]++
			}
			if b[i*l+k] < Inf {
				finB[i/bs*nb+k/bs]++
			}
		}
	}
	size := 0
	for K := 0; K < nb; K++ {
		var colsA, rowsB, inA, inB int
		for X := 0; X < nb; X++ {
			if finA[X*nb+K] > 0 {
				colsA++
				inA += finA[X*nb+K]
			}
			if finB[K*nb+X] > 0 {
				rowsB++
				inB += finB[K*nb+X]
			}
		}
		size += inA*rowsB + inB*colsA
	}
	// Round 1 input, keyed by block triple (I·nb + J)·nb + K. A carries the
	// entry's offset inside its block: A entries in [0, b²), B entries in
	// [b², 2b²). The triples are emitted in key order, each A block and
	// then its B block in offset order, so the input arrives in the
	// round's (Key, A, B) order and is reduced in place.
	sq := int64(bs * bs)
	in := slices.Grow(e.prod[0][:0], size)
	for I := 0; I < nb; I++ {
		for J := 0; J < nb; J++ {
			for K := 0; K < nb; K++ {
				if finA[I*nb+K] > 0 && finB[K*nb+J] > 0 {
					key := uint64((I*nb+J)*nb + K)
					in = appendBlock(in, a, l, bs, I, K, key, 0, open)
					in = appendBlock(in, b, l, bs, K, J, key, sq, nil)
				}
			}
		}
	}
	e.prod[0] = in
	parts, err := e.round(in, &e.prod[1], func(key uint64, pairs []Pair, st *shardState) {
		ij, K := int(key/uint64(nb)), int64(key%uint64(nb))
		I, J := ij/nb, ij%nb
		if int64(cap(st.scratch)) < 2*sq {
			st.scratch = make([]int64, 2*sq)
		}
		blk := st.scratch[:2*sq] // B block, then the C block
		for i := range blk {
			blk[i] = Inf
		}
		split := 0
		for split < len(pairs) && pairs[split].A < sq {
			split++
		}
		for _, p := range pairs[split:] {
			blk[p.A-sq] = p.B
		}
		// Entries are non-negative, so a sum with an Inf operand stays at
		// or above Inf, and only cells below Inf are emitted.
		bBlk, cBlk := blk[:sq], blk[sq:]
		for _, p := range pairs[:split] {
			il, kl := int(p.A)/bs, int(p.A)%bs
			src := bBlk[kl*bs : (kl+1)*bs]
			row := cBlk[il*bs : (il+1)*bs][:len(src)]
			for jl, v := range src {
				row[jl] = min(row[jl], p.B+v)
			}
		}
		out := st.out
		for il := 0; il < bs; il++ {
			cell := (I*bs+il)*l + J*bs
			for jl, v := range cBlk[il*bs : (il+1)*bs] {
				if v < Inf {
					out = append(out, Pair{Key: uint64(cell + jl), A: K, B: v})
				}
			}
		}
		st.out = out
	})
	if err != nil {
		return nil, err
	}
	// Min per cell over its ≤ nb partials (A = the partial's slot), at
	// most 2b² partials a reducer: a tree of fan-in 2b² when nb exceeds it.
	// Each round writes the product buffer its input does not occupy.
	for span, cur := nb, 1; span > 1; {
		fan := min(span, 2*bs*bs)
		next := (span + fan - 1) / fan
		if next > 1 { // with one round left, every slot is below fan and the keys stand
			for i := range parts {
				parts[i].Key = parts[i].Key*uint64(next) + uint64(parts[i].A)/uint64(fan)
			}
		}
		cur ^= 1
		parts, err = e.round(parts, &e.prod[cur], func(key uint64, pairs []Pair, st *shardState) {
			m := pairs[0].B
			for _, p := range pairs[1:] {
				m = min(m, p.B)
			}
			st.out = append(st.out, Pair{Key: key / uint64(next), A: int64(key % uint64(next)), B: m})
		})
		if err != nil {
			return nil, err
		}
		span = next
	}
	if c == nil {
		c = make([]int64, l*l)
	}
	for i := range c {
		c[i] = Inf
	}
	for _, p := range parts {
		c[p.Key] = p.B
	}
	return c, nil
}

// appendBlock appends the finite entries of block (R, C) of the ℓ×ℓ matrix
// m, in offset order, as pairs under key with A = base + the entry's offset
// inside its bs×bs block. Rows r with !open[r] are skipped (none when open
// is nil).
func appendBlock(in []Pair, m []int64, l, bs, R, C int, key uint64, base int64, open []bool) []Pair {
	c0, c1 := C*bs, min(l, (C+1)*bs)
	for r := R * bs; r < min(l, (R+1)*bs); r++ {
		if open != nil && !open[r] {
			continue
		}
		off := base + int64((r-R*bs)*bs)
		for c, v := range m[r*l+c0 : r*l+c1] {
			if v < Inf {
				in = append(in, Pair{Key: key, A: off + int64(c), B: v})
			}
		}
	}
	return in
}

// APSPByRepeatedSquaring computes all-pairs shortest paths of a weighted
// graph by min-plus squarings of its adjacency matrix, the strategy
// Theorem 4 uses for the quotient graph: at most ⌈log₂ ℓ⌉ of them, each
// over the rows the last one changed, stopping at the fixpoint (see the
// frontier and stop rule above). Unreachable pairs stay at Inf.
func (e *Engine) APSPByRepeatedSquaring(w *graph.Weighted) ([]int64, error) {
	l := w.NumNodes()
	if l == 0 {
		return nil, nil
	}
	mat := make([]int64, l*l)
	for i := range mat {
		mat[i] = Inf
	}
	for u := 0; u < l; u++ {
		mat[u*l+u] = 0
		nbrs, ws := w.Neighbors(graph.NodeID(u))
		for i, v := range nbrs {
			if int64(ws[i]) < mat[u*l+int(v)] {
				mat[u*l+int(v)] = int64(ws[i])
			}
		}
	}
	open, sq := make([]bool, l), make([]int64, l*l)
	for i := range open {
		open[i] = true
	}
	for span, changed := 1, true; span < l && changed; span *= 2 {
		if _, err := e.minPlus(mat, mat, l, open, sq); err != nil {
			return nil, err
		}
		changed = false
		for i, ok := range open {
			if !ok {
				continue
			}
			row, old := sq[i*l:(i+1)*l], mat[i*l:(i+1)*l]
			open[i] = !slices.Equal(row, old)
			if open[i] {
				copy(old, row)
				changed = true
			}
		}
	}
	return mat, nil
}

// DiameterByRepeatedSquaring returns the weighted diameter of a connected
// weighted graph via APSPByRepeatedSquaring (the Fact 2 path of Theorem 4).
// Unreachable pairs are ignored; the empty graph has diameter 0.
func (e *Engine) DiameterByRepeatedSquaring(w *graph.Weighted) (int64, error) {
	mat, err := e.APSPByRepeatedSquaring(w)
	if err != nil {
		return 0, err
	}
	var diam int64
	for _, d := range mat {
		if d < Inf && d > diam {
			diam = d
		}
	}
	return diam, nil
}
