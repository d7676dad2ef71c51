// Package detrand guards the repo's determinism invariant: the benchmark
// corpus and every paper table/figure must regenerate byte-for-byte from
// internal/spider and internal/core. In the deterministic packages it flags
// the three ways nondeterminism leaks in:
//
//   - time.Now — wall-clock values end up in synthesized output;
//   - the global math/rand state (rand.Intn, rand.Shuffle, ...) — unseeded
//     and process-global, unlike an injected seeded *rand.Rand;
//   - ranging over a map while appending to a slice (with no later sort in
//     the same function) or while writing output — Go randomizes map
//     iteration order, so the result ordering differs run to run.
//
// One rule is module-wide: internal/obs is the sole sanctioned home of
// time.Now (obs.RealClock wraps it once; everything else injects an
// obs.Clock), so a direct time.Now call in any other non-test package is
// flagged too — with a softer message outside the deterministic set, since
// there the concern is testability and trace reproducibility rather than
// corpus corruption.
package detrand

import (
	"go/ast"
	"go/types"
	"strings"

	"nvbench/internal/analysis"
)

// DetPackageSuffixes lists the packages whose output must be reproducible.
var DetPackageSuffixes = []string{
	"internal/ast",
	"internal/core",
	"internal/nledit",
	"internal/render",
	"internal/spider",
	"internal/store",
	"internal/vql",
}

// ObsPackageSuffix is the one package allowed to read the wall clock:
// obs.RealClock is the module's single time.Now call site, and every other
// package receives time through an injected obs.Clock.
const ObsPackageSuffix = "internal/obs"

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "deterministic packages must not use time.Now, global math/rand, or ordered map iteration\n\n" +
		"Benchmark synthesis regenerates byte-for-byte; wall clocks, the\n" +
		"process-global RNG and map-iteration order leaking into slices or\n" +
		"output are silent corpus-corruption bugs. Module-wide, internal/obs\n" +
		"is the only package that may call time.Now directly; everything\n" +
		"else injects an obs.Clock.",
	Run: run,
}

func run(pass *analysis.Pass) []analysis.Diagnostic {
	if analysis.PathMatchesAny(pass.Pkg.Path(), []string{ObsPackageSuffix}) {
		return nil // the sanctioned home of time.Now
	}
	det := analysis.PathMatchesAny(pass.Pkg.Path(), DetPackageSuffixes)
	for _, file := range pass.Files {
		if !det && isTestFile(pass, file) {
			// Outside the deterministic set, tests may time real servers
			// and real I/O with the real clock.
			continue
		}
		analysis.WithStack([]*ast.File{file}, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if det {
					checkCall(pass, n)
				} else {
					checkClockCall(pass, n)
				}
			case *ast.RangeStmt:
				if det {
					checkMapRange(pass, n, stack)
				}
			}
			return true
		})
	}
	return pass.Diagnostics()
}

// isTestFile reports whether the file is an in-package _test.go file.
func isTestFile(pass *analysis.Pass, file *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
}

// checkClockCall flags time.Now in packages outside both the deterministic
// set and internal/obs: the wall clock must arrive through an injected
// obs.Clock so tests and golden traces can substitute a manual one.
func checkClockCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := callee(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || fn.Name() != "Now" {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return
	}
	pass.Reportf(call.Pos(), "call to time.Now outside internal/obs; inject an obs.Clock (obs.RealClock in production wiring, a manual clock in tests)")
}

// checkCall flags time.Now and package-level math/rand functions.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := callee(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are the sanctioned pattern
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(), "call to time.Now in deterministic package %s; inject the timestamp from the caller", pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		// Constructors (New, NewSource, ...) build the seeded *rand.Rand
		// the deterministic packages are supposed to use; everything else
		// at package level draws from the unseeded global state.
		if !strings.HasPrefix(fn.Name(), "New") {
			pass.Reportf(call.Pos(), "use of global math/rand state (rand.%s) in deterministic package %s; draw from a seeded *rand.Rand", fn.Name(), pass.Pkg.Name())
		}
	}
}

// callee resolves the called function object, or nil for indirect calls,
// conversions and builtins.
func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	return fn
}

// checkMapRange flags a range over a map whose body makes the iteration
// order observable: it appends to a slice that is not sorted later in the
// enclosing function, or it writes output directly.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, stack []ast.Node) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	appends, writes := false, false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if fun.Name == "append" && pass.Info.Uses[fun] == types.Universe.Lookup("append") {
				appends = true
			}
		case *ast.SelectorExpr:
			if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
				if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && (strings.HasPrefix(fn.Name(), "Fprint") || strings.HasPrefix(fn.Name(), "Print")) {
					writes = true
				}
				if strings.HasPrefix(fn.Name(), "Write") && fn.Type().(*types.Signature).Recv() != nil {
					writes = true
				}
			}
		}
		return true
	})
	if writes {
		pass.Reportf(rng.Pos(), "range over map writes output in map-iteration order; iterate a sorted key slice instead")
		return
	}
	if appends && !sortedAfter(pass, rng, stack) {
		pass.Reportf(rng.Pos(), "range over map appends in map-iteration order with no later sort; sort the result or iterate sorted keys")
	}
}

// sortedAfter reports whether the function enclosing the range statement
// calls into package sort or slices after the loop ends — the canonical
// collect-then-sort idiom that makes a map-order append deterministic.
func sortedAfter(pass *analysis.Pass, rng *ast.RangeStmt, stack []ast.Node) bool {
	var body *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body != nil {
			break
		}
	}
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		if fn := callee(pass, call); fn != nil && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "sort", "slices":
				found = true
			}
		}
		return !found
	})
	return found
}
