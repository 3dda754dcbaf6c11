package mr

import (
	"errors"
	"testing"
)

func TestRoundGroupsByKey(t *testing.T) {
	e := NewEngine(Config{})
	in := []Pair{{Key: 2, A: 1}, {Key: 1, A: 2}, {Key: 2, A: 3}}
	out, err := e.Round(in, func(key uint64, pairs []Pair, emit Emitter) {
		var sum int64
		for _, p := range pairs {
			sum += p.A
		}
		emit(Pair{Key: key, A: sum})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d outputs want 2", len(out))
	}
	got := map[uint64]int64{}
	for _, p := range out {
		got[p.Key] = p.A
	}
	if got[1] != 2 || got[2] != 4 {
		t.Fatalf("group sums wrong: %v", got)
	}
	if e.Rounds() != 1 {
		t.Fatalf("rounds=%d want 1", e.Rounds())
	}
}

func TestRoundEnforcesLocalMemory(t *testing.T) {
	e := NewEngine(Config{ML: 2})
	in := []Pair{{Key: 7}, {Key: 7}, {Key: 7}}
	_, err := e.Round(in, func(_ uint64, _ []Pair, _ Emitter) {})
	if !errors.Is(err, ErrLocalMemory) {
		t.Fatalf("want ErrLocalMemory, got %v", err)
	}
}

func TestRoundEnforcesGlobalMemory(t *testing.T) {
	e := NewEngine(Config{MG: 2})
	in := []Pair{{Key: 1}, {Key: 2}, {Key: 3}}
	_, err := e.Round(in, func(_ uint64, _ []Pair, _ Emitter) {})
	if !errors.Is(err, ErrGlobalMemory) {
		t.Fatalf("want ErrGlobalMemory, got %v", err)
	}
}

func TestRoundGroupsSortedDeterministically(t *testing.T) {
	e := NewEngine(Config{})
	in := []Pair{{Key: 1, A: 3, B: 1}, {Key: 1, A: 1, B: 2}, {Key: 1, A: 3, B: 0}}
	_, err := e.Round(in, func(_ uint64, pairs []Pair, emit Emitter) {
		for i := 1; i < len(pairs); i++ {
			if pairs[i].A < pairs[i-1].A ||
				(pairs[i].A == pairs[i-1].A && pairs[i].B < pairs[i-1].B) {
				t.Fatal("group not sorted by (A, B)")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccountingCounters(t *testing.T) {
	e := NewEngine(Config{ML: 100})
	in := []Pair{{Key: 1}, {Key: 1}, {Key: 2}}
	if _, err := e.Round(in, func(_ uint64, _ []Pair, _ Emitter) {}); err != nil {
		t.Fatal(err)
	}
	if e.MaxReducerInput() != 2 {
		t.Fatalf("max group %d want 2", e.MaxReducerInput())
	}
	if e.TotalShuffled() != 3 {
		t.Fatalf("shuffled %d want 3", e.TotalShuffled())
	}
}
