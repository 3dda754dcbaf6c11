// Package mr implements the MR(MG, ML) MapReduce model of Pietracaprina et
// al. ([24] in the paper), the model in which Section 5 analyzes the
// distributed implementation of CLUSTER/CLUSTER2 and of the diameter
// estimator — and actually executes it in parallel.
//
// An MR algorithm is a sequence of rounds. In a round, a multiset of
// key-value pairs is transformed into a new multiset by applying a reducer
// independently to every group of pairs sharing a key. Two resources are
// constrained: MG, the total memory across the computation (global space),
// and ML, the memory available to a single reducer (local space). The
// engine enforces both and counts rounds, so algorithm implementations can
// be checked against their claimed round complexity (e.g. Lemma 3's
// O(R·log_ML m) rounds for R growing steps, or Fact 2's bound for matrix
// multiplication).
//
// # Execution model
//
// A round runs as an ordered shuffle-and-reduce. Its input is put in
// (Key, A, B) order once: an input that already arrives in that order, as
// the min-plus product's first round does, is read in place, and any other
// is radix-ordered in the engine's buffers on the calling goroutine —
// stable LSD radix passes over only the bits of A and Key that vary, then
// a sort of each run of equal (Key, A) by B inside the shards (see
// order.go). The order is cut at group boundaries into up to Config.Shards
// contiguous key ranges of about equal size; the workers of a persistent
// bsp.Pool claim the ranges one at a time (Pool.Claim) and reduce each,
// and the range outputs are concatenated. A key group lies in one range
// and the ranges ascend, so the round's output — and therefore every
// downstream round, the round count, and MaxReducerInput — is bit-for-bit
// identical across shard counts, including the single-shard sequential
// execution.
//
// The ordering buffers and each shard's output belong to the Engine and
// are reused by every round until Close, as are the product's own round
// buffers; the slice Round returns is freshly allocated, so no later round
// writes into it.
//
// # Resource accounting
//
// The MR(MG, ML) accounting is unchanged by parallel execution: MG bounds a
// round's input and output multiset sizes, ML bounds a single key group,
// and the counters (Rounds, TotalShuffled, MaxReducerInput) are
// shard-count independent. Accounting is all-or-nothing: a round that
// fails either memory check leaves every counter and the RoundStats log
// exactly as they were, so a failed probe cannot pollute a resource report.
//
// The driver program may inspect O(ML)-sized round outputs between rounds
// (as a real MapReduce driver collects small side outputs); everything
// data-sized must flow through Round.
package mr

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/bsp"
)

// Pair is a key-value pair. Values are opaque 2-word payloads, enough for
// the graph primitives in this repository (node ids, weights, indices).
type Pair struct {
	Key uint64
	A   int64
	B   int64
}

// Config sets the model and runtime parameters.
type Config struct {
	// MG is the global memory, in pairs. Zero means unlimited.
	MG int64
	// ML is the local (per-reducer) memory, in pairs. Zero means unlimited.
	ML int64
	// Shards is the number of parallel reducer shards (and pool workers).
	// Non-positive selects GOMAXPROCS. Outputs and accounting are
	// identical for every value.
	Shards int
}

// RoundStat records the execution profile of one successful round.
type RoundStat struct {
	// PairsIn is the round's input multiset size.
	PairsIn int64 `json:"pairs_in"`
	// PairsOut is the round's output multiset size.
	PairsOut int64 `json:"pairs_out"`
	// Shards is the number of reducer shards the round actually used
	// (small rounds stay on the calling goroutine).
	Shards int `json:"shards"`
}

// Engine executes rounds and accounts resource usage. An Engine is not safe
// for concurrent use; the parallelism lives inside Round.
type Engine struct {
	cfg    Config
	shards int
	pool   *bsp.Pool
	closed bool

	// Round's scratch, reused by every round: the ordered copy of an
	// unordered input, the radix passes' second buffer and bucket counts,
	// and one state per shard. No slice Round returns aliases any of it.
	buf, tmp []Pair
	hist     []int
	shard    []shardState

	// prod holds the min-plus product's round buffers: round 1's input,
	// then each round's output in the buffer its input does not occupy.
	prod [2][]Pair

	// ctx arms cooperative cancellation (SetContext); nil never cancels.
	ctx context.Context

	rounds       int
	maxGroup     int
	totalShuffle int64
	roundStats   []RoundStat
}

// NewEngine returns an engine for the given configuration.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg, shards: bsp.Workers(cfg.Shards)}
}

// Close releases the worker pool and the round buffers. A Round after
// Close panics, as bsp.Pool.Claim does; a second Close is a no-op.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.Close()
	}
	e.closed = true
	e.buf, e.tmp, e.hist, e.shard, e.prod = nil, nil, nil, nil, [2][]Pair{}
}

// SetContext arms cooperative cancellation: every subsequent Round checks
// ctx at the round barrier and fails with ctx.Err() before doing any work
// or touching the accounting, so a multi-round algorithm (growth steps,
// repeated squaring) stops within one round of a cancel. A nil ctx (the
// default) never cancels.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

func (e *Engine) ctxErr() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// Rounds returns the number of rounds executed so far.
func (e *Engine) Rounds() int { return e.rounds }

// MaxReducerInput returns the largest group any reducer received.
func (e *Engine) MaxReducerInput() int { return e.maxGroup }

// TotalShuffled returns the total number of pairs moved across all rounds.
func (e *Engine) TotalShuffled() int64 { return e.totalShuffle }

// Shards returns the configured shard count.
func (e *Engine) Shards() int { return e.shards }

// RoundStats returns a copy of the per-round execution profile. Failed
// rounds leave no entry.
func (e *Engine) RoundStats() []RoundStat {
	return append([]RoundStat(nil), e.roundStats...)
}

// ErrLocalMemory is returned when a reducer's input exceeds ML.
var ErrLocalMemory = errors.New("mr: reducer input exceeds local memory ML")

// ErrGlobalMemory is returned when a round's input exceeds MG.
var ErrGlobalMemory = errors.New("mr: round input exceeds global memory MG")

// Emitter collects a reducer's output pairs. It is only valid during the
// reducer invocation it was passed to, and must not be called from
// goroutines the reducer spawns.
type Emitter func(Pair)

// Reducer transforms one key group. pairs is sorted by (A, B) for
// determinism and aliases either engine-internal storage or, when the
// round's input arrived in (Key, A, B) order, that input: it must not be
// modified or retained.
// Key groups are reduced concurrently across shards, so a Reducer must be
// safe for concurrent invocation: a pure function of its group plus
// read-only captured state.
type Reducer func(key uint64, pairs []Pair, emit Emitter)

// minShardPairs is the minimum number of input pairs per shard; rounds
// smaller than 2·minShardPairs run on the calling goroutine alone.
const minShardPairs = 512

// shardsFor bounds the effective shard count for an n-pair round.
func (e *Engine) shardsFor(n int) int {
	s := e.shards
	if most := n / minShardPairs; s > most {
		s = most
	}
	if s < 1 {
		return 1
	}
	return s
}

// shardState is one reducer shard's part of a round: filled by the pool
// worker that claimed the shard, read at the barrier. Its slices are
// engine-owned scratch, reused by every later round.
type shardState struct {
	lo, hi   int     // the shard's key range: pairs[lo:hi] of the ordered round
	out      []Pair  // the shard's reducer output, group after group
	emit     Emitter // appends to out: the Emitter a Reducer is handed
	scratch  []int64 // the reducers' scratch (the min-plus block)
	maxGroup int
	err      error
}

// shardReducer reduces one key group straight into its shard: it appends
// its output to st.out and may keep scratch in st.scratch, which persists
// across the groups and rounds the shard reduces (grown as it needs, never
// kept past the call).
type shardReducer func(key uint64, pairs []Pair, st *shardState)

// run reduces one shard's key range, group by group in ascending key
// order. pairs is (Key, A)-ordered, and also ordered by B inside each run
// of equal (Key, A) unless sortB asks run to finish that order itself (it
// then writes pairs, which is engine scratch). On an ML violation it stops
// at the shard's first offending group; the shards hold ascending key
// ranges, so the first shard that fails holds the group the sequential
// execution would have tripped on.
func (st *shardState) run(ml int64, pairs []Pair, sortB bool, reduce shardReducer) {
	// Reserve an output as large as the input: the min-per-cell, growth
	// and selection rounds emit at most a pair per group, and the
	// product's first round emits about half its input once its blocks
	// fill. A larger output grows it.
	st.out, st.maxGroup, st.err = slices.Grow(st.out[:0], len(pairs)), 0, nil
	for lo := 0; lo < len(pairs); {
		key := pairs[lo].Key
		hi := lo + 1
		for hi < len(pairs) && pairs[hi].Key == key {
			hi++
		}
		group := pairs[lo:hi]
		if ml > 0 && int64(len(group)) > ml {
			st.err = fmt.Errorf("%w: key %d has %d pairs > %d",
				ErrLocalMemory, key, len(group), ml)
			break
		}
		st.maxGroup = max(st.maxGroup, len(group))
		if sortB {
			sortRunsByB(group)
		}
		reduce(key, group, st)
		lo = hi
	}
}

// Round runs one MapReduce round over input: pairs are grouped by key and
// each group is handed to reduce. It returns the output pairs assembled in
// ascending key-group order (emission order within a group), which is
// independent of the shard count. The returned slice is the caller's: no
// later round writes to it. Round never writes input; an input that is
// already in (Key, A, B) order is reduced in place, so the reducers' pairs
// then alias it. Counters are committed only if the round passes both
// memory checks and the engine's context (SetContext) is not cancelled — a
// cancelled round fails with ctx.Err() and leaves the accounting
// untouched, exactly like a failed memory probe. Round panics after Close,
// as bsp.Pool.Claim does.
func (e *Engine) Round(input []Pair, reduce Reducer) ([]Pair, error) {
	return e.round(input, nil, func(key uint64, pairs []Pair, st *shardState) {
		if st.emit == nil {
			st.emit = func(p Pair) { st.out = append(st.out, p) }
		}
		reduce(key, pairs, st.emit)
	})
}

// round is Round writing its output into *dst, grown as needed, or into a
// fresh slice when dst is nil.
func (e *Engine) round(input []Pair, dst *[]Pair, reduce shardReducer) ([]Pair, error) {
	if e.closed {
		panic("mr: Engine.Round called after Close")
	}
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	if e.cfg.MG > 0 && int64(len(input)) > e.cfg.MG {
		return nil, fmt.Errorf("%w: %d > %d", ErrGlobalMemory, len(input), e.cfg.MG)
	}
	n := len(input)
	shards := e.shardsFor(n)
	if e.shard == nil {
		e.shard = make([]shardState, e.shards)
	}
	results := e.shard[:shards]

	// Order: an input already in (Key, A, B) order is read in place;
	// otherwise a copy in the engine's buffer is radix-ordered by (Key, A)
	// and each shard finishes its groups by B.
	pairs, sortB := input, !ordered(input)
	if sortB {
		if cap(e.buf) < n {
			e.buf, e.tmp = make([]Pair, n), make([]Pair, n)
		}
		pairs = radixSort(input, e.buf[:n], e.tmp[:n], &e.hist)
	}

	// Cut the order at group boundaries into contiguous key ranges of
	// about n/shards pairs, one a shard.
	lo := 0
	for s := range results {
		hi := max(lo, n*(s+1)/shards)
		for hi > 0 && hi < n && pairs[hi].Key == pairs[hi-1].Key {
			hi++
		}
		results[s].lo, results[s].hi = lo, hi
		lo = hi
	}
	if e.pool == nil {
		e.pool = bsp.NewPool(e.shards)
	}
	e.pool.Claim(shards, 1, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			st := &results[s]
			st.run(e.cfg.ML, pairs[st.lo:st.hi], sortB, reduce)
		}
	})

	// Barrier: surface the first shard's (so the lowest-key) ML violation
	// before committing anything.
	total := 0
	for s := range results {
		if results[s].err != nil {
			return nil, results[s].err
		}
		total += len(results[s].out)
	}
	if e.cfg.MG > 0 && int64(total) > e.cfg.MG {
		return nil, fmt.Errorf("%w: output %d > %d", ErrGlobalMemory, total, e.cfg.MG)
	}

	// Concatenate the shard outputs: the shards' key ranges ascend, so this
	// is the sequential order.
	var out []Pair
	if dst != nil {
		out = (*dst)[:0]
	}
	out = slices.Grow(out, total)
	for s := range results {
		out = append(out, results[s].out...)
	}
	if dst != nil {
		*dst = out
	}

	// Commit: the round succeeded, fold the per-shard counters in.
	e.rounds++
	e.totalShuffle += int64(n)
	for s := range results {
		e.maxGroup = max(e.maxGroup, results[s].maxGroup)
	}
	e.roundStats = append(e.roundStats, RoundStat{
		PairsIn:  int64(n),
		PairsOut: int64(total),
		Shards:   shards,
	})
	return out, nil
}
