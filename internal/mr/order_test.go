package mr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

// referenceOrder is the shard order Round promises, computed the obvious
// way: a comparison sort of a copy by (Key, A, B).
func referenceOrder(in []Pair) []Pair {
	ref := slices.Clone(in)
	slices.SortFunc(ref, func(x, y Pair) int {
		switch {
		case x.Key != y.Key:
			if x.Key < y.Key {
				return -1
			}
			return 1
		case x.A != y.A:
			if x.A < y.A {
				return -1
			}
			return 1
		case x.B < y.B:
			return -1
		case x.B > y.B:
			return 1
		}
		return 0
	})
	return ref
}

// echoGroup emits its group as the reducer saw it, then a trailer holding
// the group's size, so the round's output spells out the group order, each
// group's boundaries and the within-group order.
func echoGroup(key uint64, pairs []Pair, emit Emitter) {
	for _, p := range pairs {
		emit(p)
	}
	emit(Pair{Key: key, A: math.MinInt64, B: int64(len(pairs))})
}

// checkRoundOrder runs in through Round with echoGroup at the given shard
// count and local memory, and diffs the output, MaxReducerInput and the
// lowest-key ErrLocalMemory against referenceOrder.
func checkRoundOrder(t *testing.T, in []Pair, shards int, ml int64) {
	t.Helper()
	ref := referenceOrder(in)
	var want []Pair
	maxGroup := 0
	var wantErr string
	for lo := 0; lo < len(ref); {
		hi := lo + 1
		for hi < len(ref) && ref[hi].Key == ref[lo].Key {
			hi++
		}
		if ml > 0 && int64(hi-lo) > ml {
			wantErr = fmt.Sprintf("%v: key %d has %d pairs > %d", ErrLocalMemory, ref[lo].Key, hi-lo, ml)
			break
		}
		want = append(want, ref[lo:hi]...)
		want = append(want, Pair{Key: ref[lo].Key, A: math.MinInt64, B: int64(hi - lo)})
		maxGroup = max(maxGroup, hi-lo)
		lo = hi
	}

	e := NewEngine(Config{ML: ml, Shards: shards})
	defer e.Close()
	orig := slices.Clone(in)
	out, err := e.Round(in, echoGroup)
	if !slices.Equal(in, orig) {
		t.Fatalf("shards=%d: Round modified its input", shards)
	}
	if wantErr != "" {
		if !errors.Is(err, ErrLocalMemory) || err.Error() != wantErr {
			t.Fatalf("shards=%d: err %v, want %s", shards, err, wantErr)
		}
		if out != nil || e.Rounds() != 0 {
			t.Fatalf("shards=%d: failed round returned %d pairs, rounds %d", shards, len(out), e.Rounds())
		}
		return
	}
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	if !slices.Equal(out, want) {
		for i := range min(len(out), len(want)) {
			if out[i] != want[i] {
				t.Fatalf("shards=%d: output pair %d is %+v, want %+v", shards, i, out[i], want[i])
			}
		}
		t.Fatalf("shards=%d: %d output pairs, want %d", shards, len(out), len(want))
	}
	if e.MaxReducerInput() != maxGroup {
		t.Fatalf("shards=%d: MaxReducerInput %d, want %d", shards, e.MaxReducerInput(), maxGroup)
	}
}

// orderCase is one round input of the order tests, with its local memory.
type orderCase struct {
	name string
	in   []Pair
	ml   int64
}

// orderCases are inputs chosen to break a radix: keys and A at the ends of
// their ranges (A's sign bit), runs of equal (Key, A) that only B orders,
// exact duplicates, rounds holding one key, and rounds of 0 and 1 pairs.
func orderCases() []orderCase {
	r := rng.New(40)
	gen := func(n int, key func() uint64, a, b func() int64) []Pair {
		in := make([]Pair, n)
		for i := range in {
			in[i] = Pair{Key: key(), A: a(), B: b()}
		}
		return in
	}
	full := func() int64 { return int64(r.Uint64()) }
	small := func(k int) func() int64 { return func() int64 { return int64(r.Intn(k)) - int64(k/2) } }
	pick := func(vs ...int64) func() int64 { return func() int64 { return vs[r.Intn(len(vs))] } }
	keyEnds := func() uint64 {
		return [...]uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, 1 << 63, r.Uint64()}[r.Intn(6)]
	}
	aEnds := pick(math.MinInt64, math.MinInt64+1, -1, 0, 1, math.MaxInt64-1, math.MaxInt64)

	return []orderCase{
		{"empty", nil, 0},
		{"one pair", []Pair{{Key: math.MaxUint64, A: math.MinInt64, B: 7}}, 0},
		{"random", gen(6000, r.Uint64, full, full), 0},
		{"small keys", gen(6000, func() uint64 { return uint64(r.Intn(300)) }, small(64), small(1000)), 0},
		{"ends", gen(6000, keyEnds, aEnds, pick(math.MinInt64, -3, 0, 5, math.MaxInt64)), 0},
		{"equal key and A, B orders", gen(5000, func() uint64 { return uint64(r.Intn(3)) }, small(2), full), 0},
		{"exact duplicates", gen(5000, func() uint64 { return uint64(r.Intn(5)) << 60 }, small(3), small(3)), 0},
		{"one key", gen(4096, func() uint64 { return math.MaxUint64 }, aEnds, small(9)), 0},
		{"three keys over eight shards", gen(5000, keyEnds, full, small(4)), 0},
		{"wide A, small keys", gen(6000, func() uint64 { return uint64(r.Intn(40)) }, full, small(2)), 0},
		{"local memory", gen(6000, func() uint64 { return uint64(r.Intn(50)) }, small(10), small(10)), 130},
		{"local memory at the top key", append(gen(5000, func() uint64 { return uint64(r.Intn(5000)) }, small(10), full),
			gen(40, func() uint64 { return math.MaxUint64 }, aEnds, full)...), 20},
	}
}

// TestRoundOrderMatchesSortFunc diffs the radix order against the
// comparison sort on orderCases.
func TestRoundOrderMatchesSortFunc(t *testing.T) {
	for _, c := range orderCases() {
		for _, shards := range sweepShards {
			t.Run(fmt.Sprintf("%s/shards=%d", c.name, shards), func(t *testing.T) {
				checkRoundOrder(t, c.in, shards, c.ml)
			})
		}
	}
}

// TestRoundOrderedInputMatchesShuffled runs each of orderCases through
// Round twice, as generated and pre-ordered by (Key, A, B). The ordered
// copy takes the in-place path — every group the reducers see aliases it —
// and both runs must give the same output, MaxReducerInput, RoundStats
// (bar Millis) and lowest-key ErrLocalMemory, with the ordered copy left
// as it was.
func TestRoundOrderedInputMatchesShuffled(t *testing.T) {
	type result struct {
		out      []Pair
		err      string
		maxGroup int
		stats    []RoundStat
	}
	run := func(in []Pair, shards int, ml int64, reduce Reducer) result {
		e := NewEngine(Config{ML: ml, Shards: shards})
		defer e.Close()
		out, err := e.Round(in, reduce)
		res := result{out: out, maxGroup: e.MaxReducerInput(), stats: e.RoundStats()}
		if err != nil {
			res.err = err.Error()
		}
		return res
	}
	for _, c := range orderCases() {
		ord := referenceOrder(c.in)
		at := make(map[*Pair]bool, len(ord))
		for i := range ord {
			at[&ord[i]] = true
		}
		for _, shards := range sweepShards {
			t.Run(fmt.Sprintf("%s/shards=%d", c.name, shards), func(t *testing.T) {
				kept := slices.Clone(ord)
				var copied atomic.Bool
				inPlace := run(ord, shards, c.ml, func(key uint64, pairs []Pair, emit Emitter) {
					if !at[&pairs[0]] {
						copied.Store(true)
					}
					echoGroup(key, pairs, emit)
				})
				if copied.Load() {
					t.Fatal("a reducer of the ordered input saw a copy, not the input")
				}
				if !slices.Equal(ord, kept) {
					t.Fatal("Round wrote its ordered input")
				}
				if shuffled := run(c.in, shards, c.ml, echoGroup); !reflect.DeepEqual(inPlace, shuffled) {
					t.Fatalf("ordered input gave %d pairs, %q, max group %d, stats %+v;\nas generated %d pairs, %q, max group %d, stats %+v",
						len(inPlace.out), inPlace.err, inPlace.maxGroup, inPlace.stats,
						len(shuffled.out), shuffled.err, shuffled.maxGroup, shuffled.stats)
				}
			})
		}
	}
}

// The slice a round returns is the caller's: later rounds on the same
// engine reuse the shuffle buffer, the radix scratch and the shard output
// buffers, and must write none of them into an earlier round's result.
func TestRoundOutputSurvivesLaterRounds(t *testing.T) {
	r := rng.New(41)
	gen := func(n, keys int) []Pair {
		in := make([]Pair, n)
		for i := range in {
			in[i] = Pair{Key: uint64(r.Intn(keys)), A: int64(r.Intn(100)), B: int64(r.Intn(100))}
		}
		return in
	}
	for _, shards := range []int{1, 4} {
		e := NewEngine(Config{Shards: shards})
		out, err := e.Round(gen(4000, 700), echoGroup)
		if err != nil {
			t.Fatal(err)
		}
		kept := slices.Clone(out)
		// A larger round, then a smaller one, each feeding on the last.
		next, err := e.Round(append(gen(9000, 2000), out...), echoGroup)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Round(next[:3000], echoGroup); err != nil {
			t.Fatal(err)
		}
		e.Close()
		if !reflect.DeepEqual(out, kept) {
			t.Fatalf("shards=%d: a later round overwrote round 1's output", shards)
		}
	}
}

// A Round after Close panics, as bsp.Pool.Claim does, instead of quietly
// starting a pool that nothing would ever close.
func TestRoundAfterClosePanics(t *testing.T) {
	base := runtime.NumGoroutine()
	settle := func(when string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want the baseline %d", when, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	e := NewEngine(Config{Shards: 4})
	in := make([]Pair, 8192)
	for i := range in {
		in[i] = Pair{Key: uint64(i)}
	}
	if _, err := e.Round(in, echoGroup); err != nil {
		t.Fatal(err)
	}
	e.Close()
	settle("after Close")
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		e.Round(in, echoGroup)
		return false
	}()
	if !panicked {
		t.Fatal("Round after Close returned instead of panicking")
	}
	e.Close() // a second Close is a no-op
	settle("after a Round on the closed engine")
}

// decodePairs turns fuzz bytes into a round: data[0] picks the local
// memory and whether the pairs are tiled out to a multi-shard round, and
// every pair is a control byte whose bit pairs choose, for Key, A and B in
// turn, one of four encodings of the bytes after it: a small value, eight
// raw bytes, or a byte's distance from either end of the range.
func decodePairs(data []byte) ([]Pair, int64) {
	if len(data) == 0 {
		return nil, 0
	}
	head, data := data[0], data[1:]
	v := int64(head & 0x1f)
	ml := v * v
	next := func(wide bool) (uint64, bool) {
		if !wide {
			if len(data) < 1 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return uint64(b), true
		}
		if len(data) < 8 {
			return 0, false
		}
		x := binary.LittleEndian.Uint64(data)
		data = data[8:]
		return x, true
	}
	var in []Pair
	for len(data) > 0 && len(in) < 1024 {
		c := data[0]
		data = data[1:]
		var w [3]uint64
		ok := true
		for f := range w {
			enc := c >> (2 * f) & 3
			x, got := next(enc == 1)
			ok = ok && got
			switch {
			case enc == 0 && f > 0:
				x = uint64(int64(int8(x)))
			case enc == 2:
				x = (1 << 63) + x // MinInt64 + x as A or B, 2⁶³ + x as Key
			case enc == 3 && f == 0:
				x = math.MaxUint64 - x
			case enc == 3:
				x = math.MaxInt64 - x
			}
			w[f] = x
		}
		if !ok {
			break
		}
		in = append(in, Pair{Key: w[0], A: int64(w[1]), B: int64(w[2])})
	}
	if head&0x80 != 0 && len(in) > 0 {
		// Tile to 4,096 pairs: exact copies, or with each copy's keys
		// shifted so that its groups land on other shards.
		shift := head&0x40 != 0
		n := len(in)
		for c := uint64(1); len(in) < 4096; c++ {
			for _, p := range in[:n] {
				if shift {
					p.Key += c
				}
				in = append(in, p)
			}
		}
	}
	return in, ml
}

// FuzzRoundOrder diffs Round's grouping against the comparison-sort
// reference at 1 and 4 shards, for each decoded input as decoded and
// pre-ordered (the in-place path).
func FuzzRoundOrder(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x00, 0x05, 0x01, 0x02})
	f.Add([]byte{0xc0, 0x3f, 0x00, 0x00, 0x00, 0x3f, 0x01, 0x00, 0x07, 0x15, 0x02, 0x00, 0x00})
	f.Add([]byte{0x83, 0x2a, 0x09, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x04, 0x2a, 0x09, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ml := decodePairs(data)
		ord := referenceOrder(in)
		for _, shards := range []int{1, 4} {
			checkRoundOrder(t, in, shards, ml)
			checkRoundOrder(t, ord, shards, ml)
		}
	})
}
