// The incremental-build seam: Build can consult a per-source-pair cache
// for the outcome of the synthesize→truncate→NL-variant pipeline, skipping
// synthesis entirely for pairs whose inputs have not changed. The cache is
// an interface so this package stays storage-agnostic; internal/store
// provides the content-addressed on-disk implementation.

package bench

import (
	"nvbench/internal/ast"
	"nvbench/internal/core"
	"nvbench/internal/spider"
)

// CachedVis is one kept vis object as the pair cache records it: exactly
// the fields entry assembly needs, with execution artifacts (features,
// result tables) dropped — they are recomputable and never serialized.
type CachedVis struct {
	Vis      *ast.Query
	Edit     core.Edit
	Hardness ast.Hardness
	NLs      []string
	Manual   bool
}

// PairOutcome is the complete, assembly-ready result of processing one
// source pair. A cached outcome substitutes for synthesis byte-for-byte:
// entries built from it are identical to entries built from a fresh run.
// Kept holds only vis objects with at least one NL variant (others never
// become entries), and Rejections is pre-bucketed into the Section 2.4
// failure families.
type PairOutcome struct {
	Kept       []CachedVis
	Rejections map[string]int
}

// PairCache is the incremental-build cache consulted by Build. Get reports
// a miss (false) for unknown pairs and for unreadable or corrupt cache
// artifacts — cache degradation re-synthesizes, it never fails the build.
// Implementations must be safe for concurrent use: Build calls Get and Put
// from its worker pool.
type PairCache interface {
	Get(p *spider.Pair) (*PairOutcome, bool)
	Put(p *spider.Pair, out *PairOutcome) error
}
