// Package repro is a from-scratch Go reproduction of
//
//	Ceccarello, Pietracaprina, Pucci, Upfal:
//	"Space and Time Efficient Parallel Graph Decomposition, Clustering,
//	and Diameter Approximation" (SPAA 2015, arXiv:1407.3144).
//
// It provides the paper's parallel graph decomposition (CLUSTER and
// CLUSTER2), the derived k-center and diameter approximations, a linear-
// space approximate distance oracle, the competing algorithms of the
// evaluation (MPX random-shift decomposition, parallel BFS, HADI/ANF
// sketches), the execution substrates (a direction-optimizing BSP
// traversal engine with a persistent worker pool and hybrid top-down/
// bottom-up supersteps, plus a simulator of the MR(MG, ML) MapReduce
// model), synthetic graph
// generators, and the full experiment harness regenerating every table and
// figure of the paper. Beyond the batch pipeline it provides an online
// serving layer: a concurrent HTTP/JSON query service over the built
// artifacts (internal/serve, daemon cmd/reprod) with a binary snapshot
// codec (internal/snapshot) for instant restarts. See README.md for build,
// test, and usage instructions.
//
// This package is the public facade: it re-exports the pieces a downstream
// user needs, since the implementation lives under internal/. A typical
// session:
//
//	ctx := context.Background()
//	g := repro.Mesh(500, 500)
//	cl, err := repro.Cluster(ctx, g, 64, repro.Options{Seed: 1})
//	// cl.Owner, cl.Centers, cl.MaxRadius() ...
//
//	res, err := repro.ApproxDiameter(ctx, g, repro.DiameterOptions{})
//	// res.DeltaC <= true diameter <= res.Upper
//
// Every algorithm entry point takes a context first: a build checks it at
// its superstep barriers and returns ctx.Err() within one round of a
// cancel.
package repro

import (
	"context"
	"io"

	"repro/internal/anf"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/gonzalez"
	"repro/internal/graph"
	"repro/internal/mpx"
	"repro/internal/pbfs"
	"repro/internal/quotient"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

// Graph types and construction.
type (
	// Graph is an immutable unweighted undirected graph in CSR form.
	Graph = graph.Graph
	// Weighted is an undirected graph with positive integer edge weights.
	Weighted = graph.Weighted
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// Builder accumulates edges and produces a Graph.
	Builder = graph.Builder
)

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph from an undirected edge list.
func FromEdges(n int, edges [][2]NodeID) *Graph { return graph.FromEdges(n, edges) }

// LoadEdgeList reads a graph from a text edge-list file.
func LoadEdgeList(path string) (*Graph, error) { return graph.LoadEdgeList(path) }

// SaveEdgeList writes a graph to a text edge-list file.
func SaveEdgeList(path string, g *Graph) error { return graph.SaveEdgeList(path, g) }

// Generators (synthetic benchmark graphs; see internal/graph for details).
var (
	Mesh           = graph.Mesh
	Path           = graph.Path
	Cycle          = graph.Cycle
	RoadLike       = graph.RoadLike
	BarabasiAlbert = graph.BarabasiAlbert
	RMAT           = graph.RMAT
	ErdosRenyi     = graph.ErdosRenyi
	RandomRegular  = graph.RandomRegular
	ExpanderPath   = graph.ExpanderPath
	WattsStrogatz  = graph.WattsStrogatz
	AppendTail     = graph.AppendTail
)

// Core decomposition API (Sections 3-4 of the paper).
type (
	// Options configures the randomized decompositions.
	Options = core.Options
	// Clustering is a decomposition into disjoint connected clusters.
	Clustering = core.Clustering
	// DiameterOptions configures ApproxDiameter.
	DiameterOptions = core.DiameterOptions
	// DiameterResult carries diameter bounds and run costs.
	DiameterResult = core.DiameterResult
	// KCenterResult is an approximate k-center solution.
	KCenterResult = core.KCenterResult
	// Oracle answers approximate distance queries in O(1).
	Oracle = core.Oracle
)

// NewWeighted builds a weighted graph from parallel edge/weight lists,
// rejecting mismatched lists, out-of-range endpoints, and non-positive
// weights.
func NewWeighted(n int, edges [][2]NodeID, weights []int32) (*Weighted, error) {
	return graph.NewWeighted(n, edges, weights)
}

// Cluster runs the paper's Algorithm 1 (CLUSTER(τ)).
func Cluster(ctx context.Context, g *Graph, tau int, opt Options) (*Clustering, error) {
	return core.ClusterContext(ctx, g, tau, opt)
}

// Cluster2 runs the paper's Algorithm 2 (CLUSTER2(τ)).
func Cluster2(ctx context.Context, g *Graph, tau int, opt Options) (*Clustering, error) {
	return core.Cluster2(ctx, g, tau, opt)
}

// KCenter computes an O(log³n)-approximate k-center solution (Theorem 2).
func KCenter(ctx context.Context, g *Graph, k int, opt Options) (*KCenterResult, error) {
	return core.KCenter(ctx, g, k, opt)
}

// ApproxDiameter estimates the diameter via the quotient graph of a
// decomposition (Section 4), returning certified bounds
// DeltaC <= ∆ <= Upper.
func ApproxDiameter(ctx context.Context, g *Graph, opt DiameterOptions) (*DiameterResult, error) {
	return core.ApproxDiameter(ctx, g, opt)
}

// BuildOracle constructs the linear-space approximate distance oracle.
func BuildOracle(ctx context.Context, g *Graph, tau int, useCluster2 bool, opt Options) (*Oracle, error) {
	return core.BuildOracle(ctx, g, tau, useCluster2, opt)
}

// QuotientGraph builds the (unweighted) quotient graph of a clustering.
func QuotientGraph(cl *Clustering) (*Graph, error) {
	return quotient.Build(cl.G, cl.Owner, cl.NumClusters())
}

// Baselines.

// MPXOptions configures the Miller-Peng-Xu decomposition baseline.
type MPXOptions = mpx.Options

// MPXDecompose runs the MPX random-shift decomposition ([22]).
func MPXDecompose(ctx context.Context, g *Graph, opt MPXOptions) (*Clustering, error) {
	return mpx.Decompose(ctx, g, opt)
}

// BFSDiameter runs the parallel-BFS baseline: one BFS from src, reporting
// 2·ecc(src) as the diameter upper bound.
func BFSDiameter(g *Graph, src NodeID, workers int) (*pbfs.Result, error) {
	return pbfs.Run(g, src, workers)
}

// ANFOptions configures the HADI/ANF baseline.
type ANFOptions = anf.Options

// ANFResult is the HADI/ANF output.
type ANFResult = anf.Result

// ANFDiameter runs the HADI/ANF neighborhood-function estimator ([16,23]).
func ANFDiameter(ctx context.Context, g *Graph, opt ANFOptions) (*ANFResult, error) {
	return anf.Run(ctx, g, opt)
}

// GonzalezKCenter runs the sequential greedy 2-approximation baseline.
func GonzalezKCenter(g *Graph, k int, start NodeID) ([]NodeID, int32, error) {
	return gonzalez.KCenter(g, k, start)
}

// Serving and persistence (internal/serve, internal/snapshot; daemon in
// cmd/reprod).
type (
	// Server is the concurrent graph-analytics query service: register
	// graphs, then serve distance / cluster-of / diameter / kcenter
	// queries over HTTP via Handler(), with cached single-flight artifact
	// builds and a bounded worker pool.
	Server = serve.Server
	// ServeConfig configures a Server.
	ServeConfig = serve.Config
	// ArtifactKey identifies a cached build artifact.
	ArtifactKey = serve.Key
	// SnapshotArtifact is the unit of snapshot persistence: a graph,
	// optionally its oracle, and the build metadata.
	SnapshotArtifact = snapshot.Artifact
	// SnapshotMeta identifies the build that produced an artifact.
	SnapshotMeta = snapshot.Meta
)

// NewServer returns an empty query server.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// Snapshot codec entry points: versioned, checksummed binary encoding of
// graph + oracle artifacts so a server restart skips the build.

// WriteSnapshot encodes an artifact to w.
func WriteSnapshot(w io.Writer, a *SnapshotArtifact) error { return snapshot.Write(w, a) }

// ReadSnapshot decodes an artifact, verifying checksum and structure.
func ReadSnapshot(r io.Reader) (*SnapshotArtifact, error) { return snapshot.Read(r) }

// SaveSnapshot atomically writes an artifact to the named file.
func SaveSnapshot(path string, a *SnapshotArtifact) error { return snapshot.Save(path, a) }

// LoadSnapshot reads an artifact from the named file.
func LoadSnapshot(path string) (*SnapshotArtifact, error) { return snapshot.Load(path) }

// Experiments (the paper's Section 6; see cmd/tables for the CLI).

// ExperimentConfig selects experiment scale, seed and parallelism.
type ExperimentConfig = expt.Config

// Experiment runners and renderers, re-exported for programmatic use.
var (
	Table1        = expt.Table1
	Table2        = expt.Table2
	Table3        = expt.Table3
	Table4        = expt.Table4
	Figure1       = expt.Figure1
	FormatTable1  = expt.FormatTable1
	FormatTable2  = expt.FormatTable2
	FormatTable3  = expt.FormatTable3
	FormatTable4  = expt.FormatTable4
	FormatFigure1 = expt.FormatFigure1
)
