package anf

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

func TestRunDiameterEstimateCloseToTruth(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"path":   graph.Path(60),
		"cycle":  graph.Cycle(50),
		"mesh":   graph.Mesh(15, 15),
		"social": graph.BarabasiAlbert(1500, 3, 2),
	} {
		truth, _ := g.ExactDiameter(0)
		res, err := Run(t.Context(), g, Options{K: 32, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.DiameterEstimate > truth {
			t.Errorf("%s: ANF estimate %d exceeds true diameter %d (sketch rounds cannot overshoot)",
				name, res.DiameterEstimate, truth)
		}
		// HADI is known to be accurate; with 32 registers the saturation
		// round should be close to the truth.
		if float64(res.DiameterEstimate) < 0.6*float64(truth) {
			t.Errorf("%s: ANF estimate %d far below true diameter %d", name, res.DiameterEstimate, truth)
		}
	}
}

func TestRunRoundsThetaDiameter(t *testing.T) {
	g := graph.Path(200)
	res, err := Run(t.Context(), g, Options{K: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 100 || res.Rounds > 202 {
		t.Fatalf("rounds=%d, expected Θ(∆)=199-ish", res.Rounds)
	}
}

func TestRunCommunicationVolumeBounded(t *testing.T) {
	g := graph.Mesh(12, 12)
	k := 8
	res, err := Run(t.Context(), g, Options{K: k, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The dense HADI execution moves K registers over every arc every
	// round; the active-set rounds only recombine nodes with a changed
	// neighbor, so the honest volume is bounded by the dense one and must
	// still cover at least one full sweep (round 1 touches every arc).
	dense := int64(res.Rounds) * int64(g.NumArcs()) * int64(k)
	if res.MessagesWords > dense {
		t.Fatalf("messages=%d exceed dense rounds*arcs*K=%d", res.MessagesWords, dense)
	}
	if res.MessagesWords < int64(g.NumArcs())*int64(k) {
		t.Fatalf("messages=%d below one full sweep %d", res.MessagesWords, int64(g.NumArcs())*int64(k))
	}
	if res.Stats.Rounds != res.Rounds {
		t.Fatalf("engine rounds %d != ANF rounds %d", res.Stats.Rounds, res.Rounds)
	}
}

func TestRunNeighborhoodMonotone(t *testing.T) {
	g := graph.Mesh(10, 10)
	res, err := Run(t.Context(), g, Options{K: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Neighborhood); i++ {
		if res.Neighborhood[i] < res.Neighborhood[i-1]-1e-9 {
			t.Fatalf("neighborhood function decreased at %d: %v -> %v",
				i, res.Neighborhood[i-1], res.Neighborhood[i])
		}
	}
}

func TestRunFinalNeighborhoodApproximatesN2(t *testing.T) {
	// On a connected graph N(∆) = n²; the FM estimate should land within
	// ~35% with 64 registers.
	g := graph.Mesh(12, 12)
	n := float64(g.NumNodes())
	res, err := Run(t.Context(), g, Options{K: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	final := res.Neighborhood[len(res.Neighborhood)-1]
	if math.Abs(final-n*n)/(n*n) > 0.35 {
		t.Fatalf("final neighborhood %.0f, true %.0f", final, n*n)
	}
}

func TestRunEffectiveDiameterAtMostEstimate(t *testing.T) {
	g := graph.Path(80)
	res, err := Run(t.Context(), g, Options{K: 32, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveDiameter > float64(res.DiameterEstimate) {
		t.Fatalf("effective diameter %.1f exceeds saturation round %d",
			res.EffectiveDiameter, res.DiameterEstimate)
	}
	if res.EffectiveDiameter <= 0 {
		t.Fatal("effective diameter should be positive on a long path")
	}
}

func TestRunSingleNode(t *testing.T) {
	res, err := Run(t.Context(), graph.Path(1), Options{K: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.DiameterEstimate != 0 {
		t.Fatalf("single node estimate %d want 0", res.DiameterEstimate)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(t.Context(), graph.NewBuilder(0).Build(), Options{}); err == nil {
		t.Fatal("empty graph should fail")
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if res, err := Run(ctx, graph.Path(100), Options{K: 8, Seed: 1}); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled run: res %v, err %v; want nil, context.Canceled", res, err)
	}
}

func TestRunMaxRoundsCap(t *testing.T) {
	g := graph.Path(500)
	res, err := Run(t.Context(), g, Options{K: 8, Seed: 8, MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 10 {
		t.Fatalf("rounds=%d want capped at 10", res.Rounds)
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	g := graph.Mesh(12, 12)
	var first *Result
	for _, workers := range []int{1, 2, 8} {
		res, err := Run(t.Context(), g, Options{K: 16, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(first, res) {
			t.Fatalf("workers %d: result %+v differs from workers 1: %+v", workers, res, first)
		}
	}
}

// TestRunPinned fingerprints every field of the Result on three graph
// families and two seeds, at every worker count: a refactor of the sketch
// rounds must leave every constant as is.
func TestRunPinned(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"mesh": graph.Mesh(30, 30),
		"gnp":  graph.ErdosRenyi(3000, 9000, 3),
		"road": graph.RoadLike(60, 60, 0.4, 1),
	}
	want := map[string][2]uint64{ // seeds 1 and 2
		"mesh": {0x91be8971cc5b3702, 0x065354a5b7247109},
		"gnp":  {0xdf710995c4d8b56c, 0x223765a59f53e502},
		"road": {0x66b319cc341e655b, 0x5ae330bbbc97c22f},
	}
	for name, g := range graphs {
		for i, seed := range []uint64{1, 2} {
			for _, workers := range []int{1, 2, 8} {
				res, err := Run(t.Context(), g, Options{Seed: seed, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				var buf [8]byte
				put := func(x uint64) {
					binary.LittleEndian.PutUint64(buf[:], x)
					h.Write(buf[:])
				}
				s := res.Stats
				for _, x := range []int64{int64(res.DiameterEstimate), int64(res.Rounds), res.MessagesWords,
					int64(s.Rounds), s.Messages, int64(s.MaxFrontier), int64(s.PullRounds), s.Relaxations, int64(s.Buckets),
					int64(len(res.Neighborhood))} {
					put(uint64(x))
				}
				put(math.Float64bits(res.EffectiveDiameter))
				for _, x := range res.Neighborhood {
					put(math.Float64bits(x))
				}
				if got := h.Sum64(); got != want[name][i] {
					t.Errorf("%s seed %d workers %d: fingerprint %#x, pinned %#x", name, seed, workers, got, want[name][i])
				}
			}
		}
	}
}

func TestEffectiveDiameterInterpolation(t *testing.T) {
	// N = [10, 55, 100]: target 0.9*100=90 reached between t=1 and t=2 at
	// 1 + (90-55)/(100-55).
	got := effectiveDiameter([]float64{10, 55, 100}, 0.9)
	want := 1 + 35.0/45.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("effective diameter %v want %v", got, want)
	}
}

func TestEffectiveDiameterEdgeCases(t *testing.T) {
	if effectiveDiameter(nil, 0.9) != 0 {
		t.Fatal("empty series")
	}
	if effectiveDiameter([]float64{5}, 0.9) != 0 {
		t.Fatal("single point should be 0")
	}
}
