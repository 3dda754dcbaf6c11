package mr

import (
	"cmp"
	"math/bits"
	"slices"
)

// A round's pairs are reduced in the total order (Key, A, B), the order the
// shard-count invariance rests on: it fixes which group comes first, what
// each reducer sees, where the shards' key ranges are cut,
// MaxReducerInput and the lowest-key ErrLocalMemory. ordered checks in one
// comparison pass whether a round's input already arrives in that order (a
// round whose mapper emits in key order, such as the min-plus squaring's
// first round, pays nothing more). Otherwise radixSort establishes
// (Key, A) on a copy with stable LSD counting passes and sortRunsByB
// finishes each run of equal (Key, A) by B. The passes cover only the bits
// that vary in the round, so a round whose keys are node ids or matrix
// cells pays one or two passes, and an arbitrary uint64 key pays at most
// six, by the same code.

// ordered reports whether pairs is already in (Key, A, B) order.
func ordered(pairs []Pair) bool {
	for i := 1; i < len(pairs); i++ {
		p, q := pairs[i-1], pairs[i]
		if q.Key < p.Key || q.Key == p.Key && (q.A < p.A || q.A == p.A && q.B < p.B) {
			return false
		}
	}
	return true
}

// digitBits is the widest radix digit: 2,048 buckets, whose counts stay in
// L1 beside the pairs streaming through.
const digitBits = 11

// signBit flips A's sign bit, so that the unsigned digit order of
// uint64(A) ^ signBit is the signed order of A.
const signBit = 1 << 63

// radixPass is one counting pass: the digit (word >> shift) & mask of A
// (sign-flipped) or of Key.
type radixPass struct {
	key   bool
	shift uint
	mask  uint64
}

// radixSort orders a copy of pairs by (Key, A), stably, and returns it:
// buf or tmp, equal-length scratch buffers. pairs, which is out of order
// (so holds at least two pairs), is only read. Each word's varying bits
// [lo, hi) are cut into the fewest digits of at most digitBits bits, all
// of one width; A's passes run first, then Key's. hist is the caller's
// reusable bucket-count scratch.
func radixSort(pairs, buf, tmp []Pair, hist *[]int) []Pair {
	k0, a0 := pairs[0].Key, pairs[0].A
	var dk, da uint64
	for _, p := range pairs {
		dk |= p.Key ^ k0
		da |= uint64(p.A ^ a0)
	}
	var plan [2 * ((64 + digitBits - 1) / digitBits)]radixPass
	np, na, buckets := 0, 0, 0
	for w, d := range [2]uint64{da, dk} {
		if w == 1 {
			na = np
		}
		if d == 0 {
			continue
		}
		lo := bits.TrailingZeros64(d)
		span := 64 - bits.LeadingZeros64(d) - lo
		n := (span + digitBits - 1) / digitBits
		width := (span + n - 1) / n
		for i := 0; i < n; i++ {
			plan[np] = radixPass{key: w == 1, shift: uint(lo + i*width), mask: 1<<width - 1}
			buckets += 1 << width
			np++
		}
	}
	if np == 0 {
		copy(buf, pairs)
		return buf
	}

	// One read counts every pass's digits.
	if cap(*hist) < buckets {
		*hist = make([]int, buckets)
	}
	h := (*hist)[:buckets]
	clear(h)
	var base [len(plan)]int
	for i := 1; i < np; i++ {
		base[i] = base[i-1] + int(plan[i-1].mask) + 1
	}
	for _, p := range pairs {
		a := uint64(p.A) ^ signBit
		for i := 0; i < na; i++ {
			h[base[i]+int(a>>plan[i].shift&plan[i].mask)]++
		}
		for i := na; i < np; i++ {
			h[base[i]+int(p.Key>>plan[i].shift&plan[i].mask)]++
		}
	}

	src, dst, next := pairs, buf, tmp
	for i := 0; i < np; i++ {
		pos := h[base[i] : base[i]+int(plan[i].mask)+1]
		sum := 0
		for d, c := range pos {
			pos[d] = sum
			sum += c
		}
		if plan[i].key {
			scatterKey(dst, src, pos, plan[i].shift, plan[i].mask)
		} else {
			scatterA(dst, src, pos, plan[i].shift, plan[i].mask)
		}
		src, dst, next = dst, next, dst
	}
	return src
}

// scatterA is a stable counting pass on a digit of A (sign-flipped): pos
// holds each digit's first slot in dst.
func scatterA(dst, src []Pair, pos []int, shift uint, mask uint64) {
	for _, p := range src {
		d := (uint64(p.A) ^ signBit) >> shift & mask
		dst[pos[d]] = p
		pos[d]++
	}
}

// scatterKey is scatterA on a digit of Key.
func scatterKey(dst, src []Pair, pos []int, shift uint, mask uint64) {
	for _, p := range src {
		d := p.Key >> shift & mask
		dst[pos[d]] = p
		pos[d]++
	}
}

// sortRunsByB sorts each run of equal A in a (Key, A)-ordered key group by
// B, completing the (Key, A, B) order. Equal (Key, A, B) pairs are
// identical, so the unstable sort is deterministic.
func sortRunsByB(group []Pair) {
	for i := 0; i < len(group); {
		j := i + 1
		for j < len(group) && group[j].A == group[i].A {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(group[i:j], func(x, y Pair) int { return cmp.Compare(x.B, y.B) })
		}
		i = j
	}
}
