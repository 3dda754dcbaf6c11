package mr

import "repro/internal/graph"

// Fact 2: two ℓ×ℓ matrices can be multiplied in O(log_ML n + ℓ³/(MG·√ML))
// rounds. The paper squares the quotient graph's distance matrix under the
// min-plus ("tropical") product O(log ℓ) times, obtaining its diameter
// within the memory budget of Theorem 4. The squaring here is Fact 2's
// blocked scheme, applied to the one matrix it squares.
//
// Blocking. The matrix A is cut into b×b blocks, nb = ⌈ℓ/b⌉ to a side. The
// graph is undirected, so A is symmetric and so is C = A ⊗ A, since
// C[i][j] = min_k (A[j][k] + A[k][i]) = C[j][i]: a squaring computes only
// the cells (i, j) with i ≤ j, and only those whose row and column are both
// open (see the frontier below). Cell block (I, J), I ≤ J, is the minimum
// over K of block (I, K) times block (K, J), and by symmetry block (K, J)
// over the open columns holds exactly the finite entries of block (J, K)
// over the open rows. So round 1 keys every triple (I, J, K) with I ≤ J by
// the open rows' finite entries of the row blocks (I, K) and (J, K). The
// driver holds the matrix, so it counts that O(nb²) occupancy table itself
// and keys only the triples whose two blocks are occupied. Each reducer
// multiplies its two blocks locally, reading the second one transposed,
// and emits at most b² partial minima, one per cell (a diagonal block
// I = J only its cells il ≤ jl); the following rounds take the minimum per
// cell, at most 2b² partials a reducer (one round whenever nb ≤ 2b², the
// log_ML term of Fact 2 otherwise). With one min round a squaring
// shuffles at most nb²(nb+1)/2 triples of 2b² pairs, then at most nb
// partials for each of the nb(nb+1)b²/2 cells of the blocks I ≤ J: at most
// 3·nb²(nb+1)·b²/2 pairs, against ℓ³ for an unblocked product that emits
// one pair per (i, k, j).
//
// Block side. b = ⌊√(ML/2)⌋ capped at ℓ when Config.ML > 0, so that a
// round-1 group — two b×b blocks — fits the local memory; b = ⌊√ℓ⌋
// otherwise, which keeps every reducer at ≤ 2b² ≤ 2ℓ pairs. Every b is at
// least 1.
//
// Changed-row frontier. A squaring reads only the rows the previous one
// lowered. A row left unchanged is closed, and it stays closed: if
// A′ = A ⊗ A and A′[i][·] = A[i][·], then for every k and j
//
//	A′[i][k] + A′[k][j] = A[i][k] + min_m (A[k][m] + A[m][j])
//	                    ≥ min_m (A[i][m] + A[m][j]) = A′[i][j],
//
// so row i of A′ ⊗ A′ is row i of A′ again. A closed row j is final, so
// C[i][j] = C[j][i] = A[j][i] = A[i][j]: a cell with a closed row or
// column keeps its value. The driver squares A in place. Its diagonal is
// 0, so C ≤ A cell by cell; the driver writes each computed cell and its
// mirror where it is lower, and the rows it lowers are the next squaring's
// open rows. Each squaring's matrix is thus the exact, symmetric square of
// the last one.
//
// Unreachable. A cell with no path holds graph.InfDist (2⁶²). Every finite
// distance is below it, so a sum with one Inf operand stays below 2⁶³ and
// at or above Inf, and only sums below Inf are emitted.
//
// Stop rule. The squarings stop when one lowers no row (every later one
// would repeat the matrix), or after ⌈log₂ ℓ⌉ of them, which cover every
// shortest path of at most ℓ − 1 arcs. The result is cell for cell the
// matrix of ⌈log₂ ℓ⌉ full squarings, in no more squarings.
//
// Every reducer is pure, so all rounds run concurrently across the
// engine's reducer shards.

// blockSide returns the side b of the squaring's square blocks for an ℓ×ℓ
// matrix.
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

// square computes, with the blocked scheme above, the cells (i, j) of
// C = A ⊗ A with i ≤ j, open[i] and open[j], of a symmetric ℓ×ℓ row-major
// distance matrix a (non-negative, graph.InfDist for none). It returns the
// cells with a finite value as pairs, Key = i·ℓ + j and B = C[i][j], in
// ascending key order, in an engine buffer the next squaring reuses.
func (e *Engine) square(a []int64, l int, open []bool) ([]Pair, error) {
	bs := e.blockSide(l)
	nb := (l + bs - 1) / bs
	// fin[I*nb+K]: block (I, K)'s finite entries in the open rows. Triple
	// (I, J, K) gets its two blocks exactly when both are occupied, so the
	// round's input size is known before it is built.
	fin := make([]int, nb*nb)
	for i, ok := range open {
		if !ok {
			continue
		}
		for k, v := range a[i*l : (i+1)*l] {
			if v < graph.InfDist {
				fin[i/bs*nb+k/bs]++
			}
		}
	}
	size := 0
	for I := 0; I < nb; I++ {
		for J := I; J < nb; J++ {
			for K := 0; K < nb; K++ {
				if nI, nJ := fin[I*nb+K], fin[J*nb+K]; nI > 0 && nJ > 0 {
					size += nI + nJ
				}
			}
		}
	}
	// Round 1 input, keyed by block triple (I·nb + J)·nb + K. A carries the
	// entry's offset inside its block: block (I, K)'s entries in [0, b²),
	// block (J, K)'s in [b², 2b²). The triples are emitted in key order,
	// each block in offset order, so the input arrives in the round's
	// (Key, A, B) order and is reduced in place.
	sq := int64(bs * bs)
	in := reserve(e.prod[0], size)
	for I := 0; I < nb; I++ {
		for J := I; J < nb; J++ {
			for K := 0; K < nb; K++ {
				if fin[I*nb+K] > 0 && fin[J*nb+K] > 0 {
					key := uint64((I*nb+J)*nb + K)
					in = appendBlock(in, a, l, bs, I, K, key, 0, open)
					in = appendBlock(in, a, l, bs, J, K, key, sq, open)
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
		blk := st.scratch[:2*sq] // block (K, J), then the C block
		for i := range blk {
			blk[i] = graph.InfDist
		}
		split := 0
		for split < len(pairs) && pairs[split].A < sq {
			split++
		}
		// Block (J, K)'s entry (jl, kl) is block (K, J)'s entry (kl, jl).
		for _, p := range pairs[split:] {
			off := int(p.A - sq)
			blk[off%bs*bs+off/bs] = p.B
		}
		bBlk, cBlk := blk[:sq], blk[sq:]
		for _, p := range pairs[:split] {
			il, kl := int(p.A)/bs, int(p.A)%bs
			src := bBlk[kl*bs : (kl+1)*bs]
			row := cBlk[il*bs : (il+1)*bs][:len(src)]
			for jl, v := range src {
				row[jl] = min(row[jl], p.B+v)
			}
		}
		// A diagonal block emits its upper triangle only.
		out := st.out
		for il := 0; il < bs; il++ {
			jl0 := 0
			if I == J {
				jl0 = il
			}
			cell := (I*bs+il)*l + J*bs + jl0
			for jl, v := range cBlk[il*bs+jl0 : (il+1)*bs] {
				if v < graph.InfDist {
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
	// Each round writes the buffer its input does not occupy.
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
	return parts, nil
}

// appendBlock appends the finite entries in the open rows of block (R, C)
// of the ℓ×ℓ matrix m, in offset order, as pairs under key with A = base +
// the entry's offset inside its bs×bs block.
func appendBlock(in []Pair, m []int64, l, bs, R, C int, key uint64, base int64, open []bool) []Pair {
	c0, c1 := C*bs, min(l, (C+1)*bs)
	for r := R * bs; r < min(l, (R+1)*bs); r++ {
		if !open[r] {
			continue
		}
		off := base + int64((r-R*bs)*bs)
		for c, v := range m[r*l+c0 : r*l+c1] {
			if v < graph.InfDist {
				in = append(in, Pair{Key: key, A: off + int64(c), B: v})
			}
		}
	}
	return in
}

// APSPByRepeatedSquaring computes all-pairs shortest paths of a weighted
// graph by min-plus squarings of its adjacency matrix in place, the
// strategy Theorem 4 uses for the quotient graph: at most ⌈log₂ ℓ⌉ of
// them, each over the upper triangle of the rows and columns the last one
// lowered, stopping at the fixpoint (see the frontier and stop rule
// above). Unreachable pairs hold graph.InfDist.
func (e *Engine) APSPByRepeatedSquaring(w *graph.Weighted) ([]int64, error) {
	l := w.NumNodes()
	if l == 0 {
		return nil, nil
	}
	mat := make([]int64, l*l)
	for i := range mat {
		mat[i] = graph.InfDist
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
	open := make([]bool, l)
	for i := range open {
		open[i] = true
	}
	for span, changed := 1, true; span < l && changed; span *= 2 {
		cells, err := e.square(mat, l, open)
		if err != nil {
			return nil, err
		}
		// Lower each computed cell and its mirror; the rows that drop are
		// the next squaring's open rows.
		clear(open)
		changed = false
		for _, p := range cells {
			if p.B < mat[p.Key] {
				i, j := int(p.Key)/l, int(p.Key)%l
				mat[p.Key], mat[j*l+i] = p.B, p.B
				open[i], open[j], changed = true, true, true
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
		if d < graph.InfDist && d > diam {
			diam = d
		}
	}
	return diam, nil
}
