package bsp

import "math/bits"

// Bitmap is a dense set over node ids [0, n). It is the dense counterpart
// of the sparse frontier lists the engine keeps: top-down supersteps work
// on the sparse form, bottom-up supersteps test membership against the
// dense form, and the two stay interchangeable via ToSparse/FromSparse.
//
// Concurrent use: Set and Get must be confined to word-disjoint ranges (the
// engine aligns its worker chunks to 64-node boundaries for exactly this
// reason).
type Bitmap struct {
	words []uint64
}

// NewBitmap returns an empty bitmap over [0, n).
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64)}
}

// Get reports whether u is in the set.
//
// Word-disjoint confinement: workers read chunks aligned to 64-node
// boundaries (see type doc).
func (b *Bitmap) Get(u NodeID) bool {
	return b.words[uint32(u)>>6]&(1<<(uint32(u)&63)) != 0
}

// Absent returns word wi of the complement: a bit for every id of
// [64·wi, 64·wi+64) that is not a member, pad bits past n included.
//
// Word-disjoint confinement: bottom-up workers walk chunks aligned to
// 64-node boundaries (see type doc).
func (b *Bitmap) Absent(wi int) uint64 { return ^b.words[wi] }

// Set adds u to the set. Not safe for concurrent writers sharing a word.
func (b *Bitmap) Set(u NodeID) {
	b.words[uint32(u)>>6] |= 1 << (uint32(u) & 63)
}

// ClearAll empties the set in O(n/64). Clears run between supersteps, with
// no concurrent writers.
func (b *Bitmap) ClearAll() {
	clear(b.words)
}

// FromSparse resets the bitmap to exactly the given members: a full clear,
// then one Set a member. It runs between supersteps, with no concurrent
// writers.
func (b *Bitmap) FromSparse(members []NodeID) {
	b.ClearAll()
	for _, u := range members {
		b.Set(u)
	}
}

// ToSparse appends the members of the set to dst in ascending order.
// Conversions run between supersteps, with no concurrent writers.
func (b *Bitmap) ToSparse(dst []NodeID) []NodeID {
	for wi, w := range b.words {
		base := NodeID(wi << 6)
		for w != 0 {
			dst = append(dst, base+NodeID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// Count returns the number of members. Counting runs between supersteps,
// with no concurrent writers.
func (b *Bitmap) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// BitmapView is a read-only view of a Bitmap.
type BitmapView struct{ b *Bitmap }

// Absent returns word wi of the complement, pad bits past n included.
func (v BitmapView) Absent(wi int) uint64 { return v.b.Absent(wi) }
