package mr

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// sweepShards are the shard counts the determinism tests compare; the
// acceptance criterion is bit-for-bit identical results across all of them.
var sweepShards = []int{1, 4, 8}

// counters snapshots every piece of engine accounting that must be both
// shard-count invariant and untouched by failed rounds.
type counters struct {
	rounds   int
	maxGroup int
	shuffled int64
	stats    int
}

func snap(e *Engine) counters {
	return counters{
		rounds:   e.Rounds(),
		maxGroup: e.MaxReducerInput(),
		shuffled: e.TotalShuffled(),
		stats:    len(e.RoundStats()),
	}
}

func TestRoundDeterministicAcrossShards(t *testing.T) {
	// 20k pairs over 300 keys: enough for 8 real shards, with fat groups.
	r := rng.New(17)
	in := make([]Pair, 20000)
	for i := range in {
		in[i] = Pair{Key: uint64(r.Intn(300)), A: int64(r.Intn(1000)), B: int64(r.Intn(1000))}
	}
	reduce := func(key uint64, pairs []Pair, emit Emitter) {
		var sum int64
		for _, p := range pairs {
			sum += p.A - p.B
			emit(Pair{Key: key, A: p.A, B: p.B})
		}
		emit(Pair{Key: key, A: sum, B: int64(len(pairs))})
	}
	var want []Pair
	var wantC counters
	for i, shards := range sweepShards {
		e := NewEngine(Config{Shards: shards})
		out, err := e.Round(in, reduce)
		e.Close()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if i == 0 {
			want, wantC = out, snap(e)
			continue
		}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("shards=%d: output differs from shards=%d", shards, sweepShards[0])
		}
		if got := snap(e); got != wantC {
			t.Fatalf("shards=%d: counters %+v != %+v", shards, got, wantC)
		}
	}
}

func TestClusterDeterministicAcrossShards(t *testing.T) {
	g := graph.RoadLike(40, 40, 0.4, 9)
	type result struct {
		owner   []int64
		dist    []int64
		batches int
		c       counters
	}
	var want result
	for i, shards := range sweepShards {
		e := NewEngine(Config{Shards: shards})
		s, batches, err := e.Cluster(g, 4, 21)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := result{owner: s.Owner, dist: s.Dist, batches: batches, c: snap(e)}
		e.Close()
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: clustering or accounting differs from shards=%d",
				shards, sweepShards[0])
		}
	}
}

func TestSquaringDeterministicAcrossShards(t *testing.T) {
	g := graph.RoadLike(7, 7, 0.5, 4)
	edges := g.EdgeList()
	r := rng.New(8)
	ws := make([]int32, len(edges))
	for i := range ws {
		ws[i] = int32(1 + r.Intn(9))
	}
	w := graph.MustWeighted(g.NumNodes(), edges, ws)
	var want []int64
	var wantC counters
	for i, shards := range sweepShards {
		e := NewEngine(Config{Shards: shards})
		mat, err := e.APSPByRepeatedSquaring(w)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		c := snap(e)
		e.Close()
		if i == 0 {
			want, wantC = mat, c
			continue
		}
		if !reflect.DeepEqual(mat, want) || c != wantC {
			t.Fatalf("shards=%d: matrix or counters %+v differ from shards=%d's (%+v)",
				shards, c, sweepShards[0], wantC)
		}
	}
}

// A round that trips ML must leave every counter and the RoundStats log
// exactly as they were (all-or-nothing accounting), at every shard count.
func TestFailedLocalMemoryRoundLeavesAccountingUnchanged(t *testing.T) {
	for _, shards := range sweepShards {
		e := NewEngine(Config{ML: 3000, Shards: shards})
		ok := make([]Pair, 8000)
		for i := range ok {
			ok[i] = Pair{Key: uint64(i % 16)} // groups of 500 pairs: fine
		}
		if _, err := e.Round(ok, func(_ uint64, _ []Pair, _ Emitter) {}); err != nil {
			t.Fatalf("shards=%d: setup round failed: %v", shards, err)
		}
		before := snap(e)

		bad := make([]Pair, 8000)
		for i := range bad {
			bad[i] = Pair{Key: uint64(i % 2)} // groups of 4000 pairs > ML
		}
		_, err := e.Round(bad, func(_ uint64, _ []Pair, _ Emitter) {})
		if !errors.Is(err, ErrLocalMemory) {
			t.Fatalf("shards=%d: want ErrLocalMemory, got %v", shards, err)
		}
		if after := snap(e); after != before {
			t.Fatalf("shards=%d: failed round polluted accounting: %+v -> %+v",
				shards, before, after)
		}
		e.Close()
	}
}

// Same for the output-side MG check, the one the pre-refactor engine
// committed counters before.
func TestFailedGlobalOutputRoundLeavesAccountingUnchanged(t *testing.T) {
	for _, shards := range sweepShards {
		e := NewEngine(Config{MG: 10000, Shards: shards})
		ok := make([]Pair, 2000)
		for i := range ok {
			ok[i] = Pair{Key: uint64(i)}
		}
		echo := func(key uint64, pairs []Pair, emit Emitter) {
			for _, p := range pairs {
				emit(p)
			}
		}
		if _, err := e.Round(ok, echo); err != nil {
			t.Fatalf("shards=%d: setup round failed: %v", shards, err)
		}
		before := snap(e)

		// 6000 inputs pass the input check (< MG) but the amplifying
		// reducer emits 12000 > MG.
		amp := make([]Pair, 6000)
		for i := range amp {
			amp[i] = Pair{Key: uint64(i)}
		}
		_, err := e.Round(amp, func(key uint64, pairs []Pair, emit Emitter) {
			for _, p := range pairs {
				emit(p)
				emit(p)
			}
		})
		if !errors.Is(err, ErrGlobalMemory) {
			t.Fatalf("shards=%d: want ErrGlobalMemory, got %v", shards, err)
		}
		if after := snap(e); after != before {
			t.Fatalf("shards=%d: failed round polluted accounting: %+v -> %+v",
				shards, before, after)
		}
		e.Close()
	}
}

// An input that fails the MG gate outright must also leave no trace.
func TestFailedGlobalInputRoundLeavesAccountingUnchanged(t *testing.T) {
	e := NewEngine(Config{MG: 10})
	defer e.Close()
	before := snap(e)
	_, err := e.Round(make([]Pair, 11), func(_ uint64, _ []Pair, _ Emitter) {})
	if !errors.Is(err, ErrGlobalMemory) {
		t.Fatalf("want ErrGlobalMemory, got %v", err)
	}
	if after := snap(e); after != before {
		t.Fatalf("failed round polluted accounting: %+v -> %+v", before, after)
	}
}

func TestRoundStatsRecorded(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	in := make([]Pair, 5000)
	for i := range in {
		in[i] = Pair{Key: uint64(i % 100)}
	}
	out, err := e.Round(in, func(key uint64, pairs []Pair, emit Emitter) {
		emit(Pair{Key: key, A: int64(len(pairs))})
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := e.RoundStats()
	if len(stats) != e.Rounds() {
		t.Fatalf("%d RoundStat entries for %d rounds", len(stats), e.Rounds())
	}
	st := stats[0]
	if st.PairsIn != int64(len(in)) || st.PairsOut != int64(len(out)) {
		t.Fatalf("RoundStat pairs %d/%d, want %d/%d", st.PairsIn, st.PairsOut, len(in), len(out))
	}
	if st.Shards < 1 || st.Shards > e.Shards() {
		t.Fatalf("RoundStat shards %d outside [1, %d]", st.Shards, e.Shards())
	}
}
