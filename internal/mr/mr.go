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
// A round runs as a sharded shuffle-and-reduce: input pairs are
// hash-partitioned by key into Config.Shards reducer shards, the workers of
// a persistent bsp.Pool claim the shards one at a time (Pool.Claim), order
// and reduce each, and the shard outputs are assembled in ascending
// key-group order. A shard is ordered by (Key, A, B) without a comparison
// sort: stable LSD radix passes over only the bits of A and Key that vary
// inside the shard, then a sort of each run of equal (Key, A) by B (see
// order.go). Because a key group lives entirely in one shard and the
// assembly is ordered by key, the round's output — and therefore every
// downstream round, the round count, and MaxReducerInput — is bit-for-bit
// identical across shard counts, including the single-shard sequential
// execution.
//
// The shuffle buffer, the radix scratch and each shard's output and group
// lists belong to the Engine and are reused by every round until Close;
// the slice a round returns is freshly allocated, so no later round writes
// into it.
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
	"time"

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
	// Millis is the round's wall-clock time.
	Millis float64 `json:"millis"`
}

// Engine executes rounds and accounts resource usage. An Engine is not safe
// for concurrent use; the parallelism lives inside Round.
type Engine struct {
	cfg    Config
	shards int
	pool   *bsp.Pool
	closed bool

	// Round's scratch, reused by every round: the shuffled input, the
	// radix passes' second buffer and one state per shard. No slice Round
	// returns aliases any of it.
	buf, tmp []Pair
	shard    []shardState

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
	e.buf, e.tmp, e.shard = nil, nil, nil
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
// determinism and aliases engine-internal storage: it must not be retained.
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

// mixKey is the splitmix64 finalizer: the shard hash must scramble keys
// that clients assign sequentially (node ids, block ids, matrix cells) so
// the shards stay balanced.
func mixKey(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// shardGroup is one reduced key group inside a shard's output buffer.
type shardGroup struct {
	key    uint64
	lo, hi int
}

// shardState is one reducer shard's part of a round: filled by the pool
// worker that claimed the shard, read at the barrier. Its slices are
// engine-owned scratch, reused by every later round.
type shardState struct {
	out      []Pair       // the shard's reducer output, group after group
	groups   []shardGroup // the output's key groups, in ascending key order
	hist     []int        // the radix passes' bucket counts
	scratch  []int64      // the reducers' scratch (the min-plus block)
	maxGroup int
	errKey   uint64
	err      error
}

// scratchReducer is a Reducer that may also use its shard's scratch slice,
// which persists across the groups and rounds the shard reduces: it grows
// *scratch as it needs and must not keep it past the call.
type scratchReducer func(key uint64, pairs []Pair, emit Emitter, scratch *[]int64)

// run orders one shard's pairs by (key, A, B), reduces each key group, and
// records the group boundaries for the ordered merge. pairs and tmp are
// equal-length scratch; the order lands in either. On an ML violation it
// stops at the first (lowest-key) offending group; because the shard
// processes keys in ascending order, the minimum errKey across shards is
// the same group the sequential execution would have tripped on.
func (st *shardState) run(ml int64, pairs, tmp []Pair, reduce scratchReducer) {
	pairs = radixSort(pairs, tmp, &st.hist)
	out, groups := st.out[:0], st.groups[:0]
	st.maxGroup, st.err = 0, nil
	emit := func(p Pair) { out = append(out, p) }
	for lo := 0; lo < len(pairs); {
		key := pairs[lo].Key
		hi := lo + 1
		for hi < len(pairs) && pairs[hi].Key == key {
			hi++
		}
		group := pairs[lo:hi]
		if ml > 0 && int64(len(group)) > ml {
			st.errKey = key
			st.err = fmt.Errorf("%w: key %d has %d pairs > %d",
				ErrLocalMemory, key, len(group), ml)
			break
		}
		st.maxGroup = max(st.maxGroup, len(group))
		sortRunsByB(group)
		glo := len(out)
		reduce(key, group, emit, &st.scratch)
		groups = append(groups, shardGroup{key: key, lo: glo, hi: len(out)})
		lo = hi
	}
	st.out, st.groups = out, groups
}

// Round runs one MapReduce round over input: pairs are grouped by key and
// each group is handed to reduce. It returns the output pairs assembled in
// ascending key-group order (emission order within a group), which is
// independent of the shard count. The returned slice is the caller's: no
// later round writes to it. Counters are committed only if the round
// passes both memory checks and the engine's context (SetContext) is not
// cancelled — a cancelled round fails with ctx.Err() and leaves the
// accounting untouched, exactly like a failed memory probe. Round panics
// after Close, as bsp.Pool.Claim does.
func (e *Engine) Round(input []Pair, reduce Reducer) ([]Pair, error) {
	return e.round(input, func(key uint64, pairs []Pair, emit Emitter, _ *[]int64) {
		reduce(key, pairs, emit)
	})
}

func (e *Engine) round(input []Pair, reduce scratchReducer) ([]Pair, error) {
	if e.closed {
		panic("mr: Engine.Round called after Close")
	}
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	if e.cfg.MG > 0 && int64(len(input)) > e.cfg.MG {
		return nil, fmt.Errorf("%w: %d > %d", ErrGlobalMemory, len(input), e.cfg.MG)
	}
	start := time.Now() //lint:allow walltime accounting-only: round timing never influences shard output
	shards := e.shardsFor(len(input))
	if e.shard == nil {
		e.shard = make([]shardState, e.shards)
	}
	results := e.shard[:shards]

	// Shuffle: hash-partition by key into contiguous per-shard regions of
	// the engine's buffer (one shard, on the caller, is a copy of input).
	n := len(input)
	if cap(e.buf) < n {
		e.buf, e.tmp = make([]Pair, n), make([]Pair, n)
	}
	buf, tmp := e.buf[:n], e.tmp[:n]
	offsets := make([]int, shards+1)
	if shards == 1 {
		copy(buf, input)
		offsets[1] = n
	} else {
		for i := range input {
			offsets[1+int(mixKey(input[i].Key)%uint64(shards))]++
		}
		for s := 1; s <= shards; s++ {
			offsets[s] += offsets[s-1]
		}
		pos := append([]int(nil), offsets[:shards]...)
		for i := range input {
			s := int(mixKey(input[i].Key) % uint64(shards))
			buf[pos[s]] = input[i]
			pos[s]++
		}
	}
	if e.pool == nil {
		e.pool = bsp.NewPool(e.shards)
	}
	e.pool.Claim(shards, 1, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			results[s].run(e.cfg.ML, buf[offsets[s]:offsets[s+1]], tmp[offsets[s]:offsets[s+1]], reduce)
		}
	})

	// Barrier: surface the lowest-key ML violation (deterministic across
	// shard counts) before committing anything.
	var roundErr error
	var errKey uint64
	for s := range results {
		if results[s].err != nil && (roundErr == nil || results[s].errKey < errKey) {
			roundErr, errKey = results[s].err, results[s].errKey
		}
	}
	if roundErr != nil {
		return nil, roundErr
	}

	// Assemble shard outputs in ascending key-group order into a fresh
	// slice. Each shard's group list is already key-sorted and a key lives
	// in exactly one shard, so a linear multi-way merge reproduces the
	// sequential order; a single shard already IS that order.
	total := 0
	for s := range results {
		total += len(results[s].out)
	}
	if e.cfg.MG > 0 && int64(total) > e.cfg.MG {
		return nil, fmt.Errorf("%w: output %d > %d", ErrGlobalMemory, total, e.cfg.MG)
	}
	out := make([]Pair, total)
	if shards == 1 {
		copy(out, results[0].out)
	} else {
		idx := make([]int, shards)
		for o := 0; ; {
			best := -1
			var bestKey uint64
			for s := 0; s < shards; s++ {
				if idx[s] < len(results[s].groups) {
					if k := results[s].groups[idx[s]].key; best < 0 || k < bestKey {
						best, bestKey = s, k
					}
				}
			}
			if best < 0 {
				break
			}
			g := results[best].groups[idx[best]]
			o += copy(out[o:], results[best].out[g.lo:g.hi])
			idx[best]++
		}
	}

	// Commit: the round succeeded, fold the per-shard counters in.
	e.rounds++
	e.totalShuffle += int64(len(input))
	for s := range results {
		e.maxGroup = max(e.maxGroup, results[s].maxGroup)
	}
	e.roundStats = append(e.roundStats, RoundStat{
		PairsIn:  int64(len(input)),
		PairsOut: int64(total),
		Shards:   shards,
		Millis:   float64(time.Since(start).Nanoseconds()) / 1e6,
	})
	return out, nil
}
