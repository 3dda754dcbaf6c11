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
// a persistent bsp.Pool claim the shards one at a time (Pool.Claim) and
// sort and reduce each, and the shard outputs are assembled in ascending
// key-group order. Because a key group lives entirely in one shard and the
// assembly is ordered by key, the round's output — and therefore every
// downstream round, the round count, and MaxReducerInput — is bit-for-bit
// identical across shard counts, including the single-shard sequential
// execution.
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

// Close releases the worker pool. The engine must not run rounds afterwards.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.Close()
		e.pool = nil
	}
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

// shardResult is one shard's contribution to a round, produced by the pool
// worker that claimed the shard and merged at the barrier.
type shardResult struct {
	out      []Pair
	groups   []shardGroup
	maxGroup int
	errKey   uint64
	err      error
}

// runShard sorts one shard's pairs by (key, A, B), reduces each key group,
// and records the group boundaries for the ordered merge. On an ML
// violation it stops at the first (lowest-key) offending group; because the
// shard processes keys in ascending order, the minimum errKey across shards
// is the same group the sequential execution would have tripped on.
func runShard(ml int64, pairs []Pair, res *shardResult, reduce Reducer) {
	// The comparison is a total order over all three fields, so the
	// (unstable) sort is deterministic: equal elements are identical.
	slices.SortFunc(pairs, func(a, b Pair) int {
		switch {
		case a.Key != b.Key:
			if a.Key < b.Key {
				return -1
			}
			return 1
		case a.A != b.A:
			if a.A < b.A {
				return -1
			}
			return 1
		case a.B < b.B:
			return -1
		case a.B > b.B:
			return 1
		}
		return 0
	})
	var out []Pair
	emit := func(p Pair) { out = append(out, p) }
	for lo := 0; lo < len(pairs); {
		hi := lo
		for hi < len(pairs) && pairs[hi].Key == pairs[lo].Key {
			hi++
		}
		group := pairs[lo:hi]
		key := pairs[lo].Key
		if ml > 0 && int64(len(group)) > ml {
			res.errKey = key
			res.err = fmt.Errorf("%w: key %d has %d pairs > %d",
				ErrLocalMemory, key, len(group), ml)
			return
		}
		if len(group) > res.maxGroup {
			res.maxGroup = len(group)
		}
		glo := len(out)
		reduce(key, group, emit)
		res.groups = append(res.groups, shardGroup{key: key, lo: glo, hi: len(out)})
		lo = hi
	}
	res.out = out
}

// Round runs one MapReduce round over input: pairs are grouped by key and
// each group is handed to reduce. It returns the output pairs assembled in
// ascending key-group order (emission order within a group), which is
// independent of the shard count. Counters are committed only if the round
// passes both memory checks and the engine's context (SetContext) is not
// cancelled — a cancelled round fails with ctx.Err() and leaves the
// accounting untouched, exactly like a failed memory probe.
func (e *Engine) Round(input []Pair, reduce Reducer) ([]Pair, error) {
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	if e.cfg.MG > 0 && int64(len(input)) > e.cfg.MG {
		return nil, fmt.Errorf("%w: %d > %d", ErrGlobalMemory, len(input), e.cfg.MG)
	}
	start := time.Now() //lint:allow walltime accounting-only: round timing never influences shard output
	shards := e.shardsFor(len(input))
	results := make([]shardResult, shards)

	// Shuffle: hash-partition by key into contiguous per-shard regions of
	// one scratch buffer (one shard, on the caller, is a copy of input).
	counts := make([]int, shards)
	for i := range input {
		counts[int(mixKey(input[i].Key)%uint64(shards))]++
	}
	offsets := make([]int, shards+1)
	for s := 0; s < shards; s++ {
		offsets[s+1] = offsets[s] + counts[s]
	}
	buf := make([]Pair, len(input))
	pos := make([]int, shards)
	copy(pos, offsets[:shards])
	for i := range input {
		s := int(mixKey(input[i].Key) % uint64(shards))
		buf[pos[s]] = input[i]
		pos[s]++
	}
	if e.pool == nil {
		e.pool = bsp.NewPool(e.shards)
	}
	e.pool.Claim(shards, 1, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			runShard(e.cfg.ML, buf[offsets[s]:offsets[s+1]], &results[s], reduce)
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

	// Assemble shard outputs in ascending key-group order. Each shard's
	// group list is already key-sorted and a key lives in exactly one
	// shard, so a linear multi-way merge reproduces the sequential order.
	// A single shard already IS that order — no copy needed.
	var out []Pair
	if shards == 1 {
		out = results[0].out
	} else {
		total := 0
		for s := range results {
			total += len(results[s].out)
		}
		out = make([]Pair, 0, total)
		idx := make([]int, shards)
		for {
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
			out = append(out, results[best].out[g.lo:g.hi]...)
			idx[best]++
		}
	}

	if e.cfg.MG > 0 && int64(len(out)) > e.cfg.MG {
		return nil, fmt.Errorf("%w: output %d > %d", ErrGlobalMemory, len(out), e.cfg.MG)
	}

	// Commit: the round succeeded, fold the per-shard counters in.
	e.rounds++
	e.totalShuffle += int64(len(input))
	for s := range results {
		if results[s].maxGroup > e.maxGroup {
			e.maxGroup = results[s].maxGroup
		}
	}
	e.roundStats = append(e.roundStats, RoundStat{
		PairsIn:  int64(len(input)),
		PairsOut: int64(len(out)),
		Shards:   shards,
		Millis:   float64(time.Since(start).Nanoseconds()) / 1e6,
	})
	return out, nil
}
