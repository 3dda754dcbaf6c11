package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// graphName is the name the daemon serves the workload graph under.
const graphName = "g"

const (
	pointPairs    = 32768 // distinct /distance requests a server cycles through
	framePairs    = 4096  // pairs in one /distance-batch frame
	batchFrames   = 8     // distinct frames a server cycles through
	sampleSources = 16    // oracle stretch is checked from this many sources
	sampleTargets = 64    // to this many targets each
	mrCandidates  = 256   // decomposition seeds tried for the MR quotient size
	mrSeeds       = 4     // and how many of them the MR pipeline cycles through
)

// workload names one set of inputs and how the phases run on it. The
// reasons each exists are in README.md and BENCHMARK.json.
type workload struct {
	name string
	gen  func(seed uint64) *graph.Graph
	// side generates the small graph of the same family the MR pipeline
	// runs on, and mrTau its granularity. Its decomposition seeds are the
	// mrSeeds candidates, of the run seed's first mrCandidates, whose
	// quotients are closest to mrClusters nodes (nearly always exactly
	// that many), which keeps the Θ(ℓ³) shuffle volume comparable from
	// seed to seed.
	side       func(seed uint64) *graph.Graph
	mrTau      int
	mrClusters int
	oracleTau  int // oracle granularity; 0 = the paper's default
	kcenterK   int
	// Each offline operation cycles through this many decomposition seeds
	// (its levels). More levels average out how much the work and the
	// quality depend on the seed; fewer leave more repetitions per level
	// to take a median over. Every level runs at least once.
	diameterSeeds, kcenterSeeds, oracleSeeds int
	// The oracle's seeds are the candidates, among the run seed's first
	// oracleCandidates, whose cluster count is closest to oracleClusters:
	// build time grows with the square of that count and the daemon's
	// memory with it, so an unpinned count would dominate both.
	oracleClusters, oracleCandidates int
	// How often each operation repeats in one round of the schedule: more
	// than once where it has many levels, or is so much cheaper than the
	// oracle builds that rounds are few.
	diameterPerRound, kcenterPerRound, oraclePerRound int
	// Matched pairs of serving slices of each kind per round: one more
	// where the rounds are long and therefore few.
	slicePairs int
}

var workloads = []*workload{
	{
		name:  "road",
		gen:   func(seed uint64) *graph.Graph { return graph.RoadLike(1000, 1000, 0.4, seed) },
		side:  func(seed uint64) *graph.Graph { return graph.RoadLike(15, 15, 0.4, seed) },
		mrTau: 1, mrClusters: 64,
		kcenterK:      64,
		diameterSeeds: 4, kcenterSeeds: 16, oracleSeeds: 2,
		oracleClusters: 900, oracleCandidates: 8,
		diameterPerRound: 1, kcenterPerRound: 2, oraclePerRound: 1,
		slicePairs: 2,
	},
	{
		name: "social",
		gen: func(seed uint64) *graph.Graph {
			g, _ := graph.RMAT(19, 8, seed).LargestComponent()
			return g
		},
		side: func(seed uint64) *graph.Graph {
			g, _ := graph.RMAT(10, 8, seed).LargestComponent()
			return g
		},
		mrTau: 1, mrClusters: 64,
		kcenterK: 32,
		// On this graph growth takes four or five rounds and switches
		// direction or not depending on the decomposition seed, so one
		// seed's work is up to a quarter off the next one's: every
		// operation averages sixteen, and the cluster count, which the
		// tiny tables make irrelevant, only picks the daemon's seed.
		// K-center's merge makes its work go with the seed far more (from
		// 3 to 12 sweeps, standard deviation 26 %): it gets half as many
		// repetitions again, on twenty-four seeds.
		diameterSeeds: 16, kcenterSeeds: 24, oracleSeeds: 16,
		oracleClusters: 225, oracleCandidates: 16,
		diameterPerRound: 2, kcenterPerRound: 3, oraclePerRound: 2,
		slicePairs: 2,
	},
	{
		name:  "fine",
		gen:   func(seed uint64) *graph.Graph { return graph.RoadLike(400, 400, 0.4, seed) },
		side:  func(seed uint64) *graph.Graph { return graph.RoadLike(15, 15, 0.4, seed) },
		mrTau: 1, mrClusters: 64,
		oracleTau: 8,
		kcenterK:  256,
		// A diameter or k-center call is 30 ms here, a tenth of a round's
		// oracle builds, so each repeats many times a round. The diameter's
		// work goes with the decomposition seed (12 % standard deviation,
		// the odd seed twice the mean: the searches iFUB needs on the
		// quotient), so a run's repetitions go to 64 seeds once each, not
		// to 16 seeds four times: the mean of 16 moved by 5 % from one set
		// of seeds to the next whatever the repetitions.
		diameterSeeds: 64, kcenterSeeds: 16, oracleSeeds: 1,
		oracleClusters: 3400, oracleCandidates: 16,
		diameterPerRound: 13, kcenterPerRound: 6, oraclePerRound: 1,
		slicePairs: 3,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// splitmix64 is the benchmark's own generator for query pairs, so that a
// change to the repository's rng package cannot change the requests.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int32 { return int32(s.next() % uint64(n)) }

// inputs is everything a run derives from (workload, seed) before any
// clock starts.
type inputs struct {
	g        *graph.Graph
	side     *graph.Graph
	mrSeeds  []uint64 // the MR pipeline's pinned decomposition seeds
	orSeeds  []uint64 // the oracle's pinned decomposition seeds
	pairs    [][2]int32
	frames   [][]byte // RPB1 frames of framePairs pairs each
	framePrs [][][2]int32
	sources  []int32 // endpoints of the stretch check: every source
	targets  []int32 // is paired with every target
	hash     uint64
}

// algSeed is the decomposition seed of cycle position j for a run seed.
func algSeed(seed uint64, j int) uint64 { return seed*1000 + uint64(j) }

// makeInputs derives everything else from the two generated graphs.
func makeInputs(ctx context.Context, w *workload, seed uint64, g, side *graph.Graph) (*inputs, error) {
	in := &inputs{g: g, side: side}
	n := in.g.NumNodes()
	if n == 0 || !in.g.IsConnected() {
		return nil, fmt.Errorf("workload %s seed %d: graph is empty or disconnected", w.name, seed)
	}
	rng := splitmix64(seed)
	in.pairs = make([][2]int32, pointPairs)
	for i := range in.pairs {
		in.pairs[i] = [2]int32{rng.intn(n), rng.intn(n)}
	}
	for f := 0; f < batchFrames; f++ {
		prs := make([][2]int32, framePairs)
		for i := range prs {
			prs[i] = [2]int32{rng.intn(n), rng.intn(n)}
		}
		in.framePrs = append(in.framePrs, prs)
		in.frames = append(in.frames, encodePairsFrame(prs))
	}
	in.sources, in.targets = make([]int32, sampleSources), make([]int32, sampleTargets)
	for i := range in.sources {
		in.sources[i] = rng.intn(n)
	}
	for i := range in.targets {
		in.targets[i] = rng.intn(n)
	}

	// Pin the MR quotient size and the oracle's cluster count.
	var err error
	if in.mrSeeds, err = closestSeeds(ctx, in.side, w.mrTau, seed, mrCandidates, w.mrClusters, mrSeeds); err != nil {
		return nil, fmt.Errorf("mr side graph: %w", err)
	}
	tau := w.oracleTau
	if tau <= 0 {
		tau = core.DefaultOracleTau(n)
	}
	if in.orSeeds, err = closestSeeds(ctx, in.g, tau, seed, w.oracleCandidates, w.oracleClusters, w.oracleSeeds); err != nil {
		return nil, err
	}
	in.hash = in.fingerprint()
	return in, nil
}

// closestSeeds decomposes g at tau under the run seed's first candidates
// decomposition seeds and returns the want of them whose cluster counts
// are closest to target, closest first (ties to the earlier candidate).
func closestSeeds(ctx context.Context, g *graph.Graph, tau int, seed uint64, candidates, target, want int) ([]uint64, error) {
	type cand struct {
		seed uint64
		off  int
	}
	cands := make([]cand, candidates)
	for j := range cands {
		s := algSeed(seed, j)
		cl, err := core.ClusterContext(ctx, g, tau, core.Options{Seed: s, Workers: runtime.NumCPU()})
		if err != nil {
			return nil, err
		}
		off := cl.NumClusters() - target
		if off < 0 {
			off = -off
		}
		cands[j] = cand{s, off}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].off < cands[b].off })
	out := make([]uint64, want)
	for i := range out {
		out[i] = cands[i].seed
	}
	return out, nil
}

// fingerprint is an FNV-1a hash of every generated input: both CSRs, the
// query pairs, the batch frames and the sample endpoints. A generator that
// changes its output changes this value. The pinned decomposition seeds
// are left out: they depend on core's decomposition, which later changes
// are free to alter.
func (in *inputs) fingerprint() uint64 {
	h := fnv1a(fnvOffset)
	for _, g := range []*graph.Graph{in.g, in.side} {
		xadj, adj := g.CSR()
		h.u64(uint64(len(xadj)))
		for _, x := range xadj {
			h.u64(uint64(x))
		}
		for _, a := range adj {
			h.u64(uint64(a))
		}
	}
	for _, p := range in.pairs {
		h.u64(uint64(uint32(p[0]))<<32 | uint64(uint32(p[1])))
	}
	for _, f := range in.frames {
		for _, b := range f {
			h.byte(b)
		}
	}
	for _, ends := range [][]int32{in.sources, in.targets} {
		for _, s := range ends {
			h.u64(uint64(s))
		}
	}
	return uint64(h)
}

// fnv1a is the 64-bit FNV-1a hash, inlined because the inputs run to tens
// of millions of words.
type fnv1a uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (h *fnv1a) byte(b byte) { *h = (*h ^ fnv1a(b)) * fnvPrime }

func (h *fnv1a) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v))
		v >>= 8
	}
}

// pinnedHashes are the fingerprints of the default seed 1 and the held-out
// seed 2. A run on either fails if its inputs hash differently: a later
// change to a generator must show up as changed inputs, not as a change in
// performance.
var pinnedHashes = map[string]map[uint64]uint64{
	"road":   {1: 0xc3641fd35e5cabf0, 2: 0x3642925c2d1651ec},
	"social": {1: 0x9b00de6a3ef09983, 2: 0x5c5f78f6ab652843},
	"fine":   {1: 0xf5fb4119a6ad8bbc, 2: 0x090441cbc8d28407},
}
