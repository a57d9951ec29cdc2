// Package paracosm is a from-scratch Go reproduction of "ParaCOSM: A
// Parallel Framework for Continuous Subgraph Matching" (ICPP 2025).
//
// This file is the public facade of the library: everything a downstream
// user needs to run continuous subgraph matching — building data graphs,
// queries and update streams, picking one of the five bundled CSM
// algorithms, and executing it under the ParaCOSM two-level parallel
// framework — re-exported from the internal packages in one import. The
// implementation lives under internal/ (see DESIGN.md for the system
// inventory); cmd/ holds the CLI tools, examples/ runnable programs, and
// bench_test.go regenerates every table and figure of the paper.
//
//	g := paracosm.NewGraph(0)
//	a := g.AddVertex(1)
//	b := g.AddVertex(2)
//	q := paracosm.MustNewQuery([]paracosm.Label{1, 2})
//	q.MustAddEdge(0, 1, 0)
//	_ = q.Finalize()
//	eng := paracosm.New(paracosm.Symbi(), paracosm.Threads(8))
//	_ = eng.Init(g, q)
//	eng.ProcessUpdate(ctx, paracosm.AddEdge(a, b, 0))
package paracosm

import (
	"paracosm/internal/algo/calig"
	"paracosm/internal/algo/graphflow"
	"paracosm/internal/algo/incisomatch"
	"paracosm/internal/algo/newsp"
	"paracosm/internal/algo/sjtree"
	"paracosm/internal/algo/symbi"
	"paracosm/internal/algo/turboflux"
	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/dataset"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// Core graph types.
type (
	// Graph is the dynamic labeled data graph G.
	Graph = graph.Graph
	// VertexID identifies a data vertex.
	VertexID = graph.VertexID
	// Label is a vertex or edge label.
	Label = graph.Label
	// Query is the query graph Q.
	Query = query.Graph
	// QueryVertexID identifies a query vertex.
	QueryVertexID = query.VertexID
	// Update is one element of the update stream ΔG.
	Update = stream.Update
	// Stream is an ordered update sequence.
	Stream = stream.Stream
)

// NoVertex is the "unmatched" sentinel in partial embeddings.
const NoVertex = graph.NoVertex

// MaxQueryVertices is the largest supported query size.
const MaxQueryVertices = query.MaxVertices

// NewGraph returns an empty data graph with capacity for n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewQuery creates a query graph with the given vertex labels; add edges
// with AddEdge and call Finalize before use.
func NewQuery(labels []Label) (*Query, error) { return query.New(labels) }

// MustNewQuery is NewQuery for known-good input.
func MustNewQuery(labels []Label) *Query { return query.MustNew(labels) }

// AddEdge builds an edge-insertion update.
func AddEdge(u, v VertexID, l Label) Update {
	return Update{Op: stream.AddEdge, U: u, V: v, ELabel: l}
}

// DeleteEdge builds an edge-deletion update.
func DeleteEdge(u, v VertexID) Update {
	return Update{Op: stream.DeleteEdge, U: u, V: v}
}

// AddVertex builds a vertex-insertion update.
func AddVertex(l Label) Update { return Update{Op: stream.AddVertex, VLabel: l} }

// DeleteVertex builds an (isolated) vertex-deletion update.
func DeleteVertex(v VertexID) Update { return Update{Op: stream.DeleteVertex, U: v} }

// Framework types.
type (
	// Engine is a ParaCOSM instance wrapping one CSM algorithm.
	Engine = core.Engine
	// Option configures an Engine.
	Option = core.Option
	// Config is the engine's effective configuration.
	Config = core.Config
	// Stats is accumulated run instrumentation.
	Stats = core.Stats
	// Algorithm is the pluggable CSM algorithm interface: the traversal
	// routine (Roots/Expand/Terminal) plus the filtering rule
	// (AffectsADS) the paper asks the user to supply.
	Algorithm = csm.Algorithm
	// State is a partial embedding (a search-tree node).
	State = csm.State
	// MatchFunc observes reported matches.
	MatchFunc = csm.MatchFunc
	// Delta is the incremental result of one update.
	Delta = csm.Delta
)

// ErrDeadline is returned when a processing budget expires mid-search.
var ErrDeadline = csm.ErrDeadline

// New creates a ParaCOSM engine around any Algorithm. Call Close when
// the engine is no longer needed to release its persistent worker pool
// (Threads-1 workers, started lazily on the first parallel escalation, so
// engines that never escalate hold no goroutines).
func New(a Algorithm, opts ...Option) *Engine { return core.New(a, opts...) }

// Engine options (see core.Config for semantics).
var (
	// Threads caps the goroutines that search one update, the caller
	// included.
	Threads = core.Threads
	// SplitDepth sets SPLIT_DEPTH for adaptive task splitting.
	SplitDepth = core.SplitDepth
	// EscalateNodes sets the sequential budget before parallel escalation.
	EscalateNodes = core.EscalateNodes
	// LoadBalance toggles adaptive re-splitting.
	LoadBalance = core.LoadBalance
	// InterUpdate toggles the safe/unsafe update classifier.
	InterUpdate = core.InterUpdate
	// Simulate toggles execution-driven schedule simulation.
	Simulate = core.Simulate
)

// The five CSM baselines of the paper, ready to wrap.

// GraphFlow returns the index-free baseline (Kankanamge et al.).
func GraphFlow() Algorithm { return graphflow.New() }

// TurboFlux returns the DCG-indexed baseline (Kim et al.).
func TurboFlux() Algorithm { return turboflux.New() }

// Symbi returns the DCS-indexed baseline (Min et al.).
func Symbi() Algorithm { return symbi.New() }

// NewSP returns the CPT/EXP-decoupled baseline (Li et al.).
func NewSP() Algorithm { return newsp.New() }

// CaLiG returns the LiG kernel/shell baseline (Yang et al.) in full
// enumeration mode; CaLiGCounting returns its combinatorial counting mode.
func CaLiG() Algorithm { return calig.New() }

// CaLiGCounting returns CaLiG with turbo-boosted shell counting.
func CaLiGCounting() Algorithm { return calig.New(calig.Counting()) }

// IncIsoMatch returns the recomputation baseline (Fan et al.) — useful
// only as a lower bound; see the "recompute" experiment.
func IncIsoMatch() Algorithm { return incisomatch.New() }

// SJTree returns the join-based baseline (Choudhury et al.): materialized
// partial-match tables with delta joins. Fast per update, but its table
// memory grows as O(|E(G)|^|E(Q)|) (Table 1), so use it for small queries
// over moderate graphs only.
func SJTree() Algorithm { return sjtree.New() }

// MultiEngine runs many continuous queries over one stream, adding
// query-level parallelism on top of ParaCOSM's two levels.
type MultiEngine = core.MultiEngine

// NewMulti creates an empty multi-query engine. Call Close when done to
// release its one worker pool, which runs the query fan-out and every
// query's escalated searches.
func NewMulti(opts ...Option) *MultiEngine { return core.NewMulti(opts...) }

// Dataset synthesis (stand-ins for the paper's evaluation datasets).
type (
	// Dataset is a synthesized data graph plus insertion stream.
	Dataset = dataset.Dataset
	// DatasetSpec is a dataset's Table 5 metadata.
	DatasetSpec = dataset.Spec
	// DatasetOption configures synthesis.
	DatasetOption = dataset.Option
)

// Dataset constructors and options.
var (
	// AmazonLike synthesizes the Amazon co-purchase stand-in.
	AmazonLike = dataset.AmazonLike
	// LiveJournalLike synthesizes the LiveJournal stand-in.
	LiveJournalLike = dataset.LiveJournalLike
	// LSBenchLike synthesizes the LSBench stand-in.
	LSBenchLike = dataset.LSBenchLike
	// OrkutLike synthesizes the Orkut stand-in.
	OrkutLike = dataset.OrkutLike
	// CustomDataset synthesizes a dataset from arbitrary metadata.
	CustomDataset = dataset.Custom
	// DatasetScale multiplies the spec's vertex/edge counts.
	DatasetScale = dataset.Scale
	// DatasetSeed fixes the generation seed.
	DatasetSeed = dataset.Seed
)
