// Package errdrop reports expression statements that call a function whose
// (last) result is an error and discard it — the classic unchecked
// Write/Flush/Close. A benchmark writer that ignores a short write or a
// failed flush emits a silently truncated corpus, so dropped errors are
// treated as lint failures rather than style nits.
//
// A small allowlist mirrors errcheck's defaults for APIs whose errors are
// documented to be always nil or are pure console output: fmt.Print* and
// fmt.Fprint*, and methods on bytes.Buffer, strings.Builder and the hash
// packages. In-repo log-and-return helpers (internal/server's writeJSON
// and writeBytes, which log write failures themselves) are allowlisted by
// package-path suffix and name — see logAndReturnHelpers.
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"nvbench/internal/analysis"
)

// Analyzer is the dropped-error check.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc: "calls must not discard a returned error\n\n" +
		"An expression statement whose call returns an error (alone or as\n" +
		"the last result) silently drops it; assign and handle it instead.",
	Run: run,
}

var errorType = types.Universe.Lookup("error").Type()

func run(pass *analysis.Pass) []analysis.Diagnostic {
	analysis.Preorder(pass.Files, func(n ast.Node) {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return
		}
		call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
		if !ok || !returnsError(pass, call) || allowed(pass, call) {
			return
		}
		pass.Reportf(call.Pos(), "unhandled error returned by %s", types.ExprString(ast.Unparen(call.Fun)))
	})
	return pass.Diagnostics()
}

// returnsError reports whether the call's sole or last result is an error.
func returnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && types.Identical(t.At(t.Len()-1).Type(), errorType)
	default:
		return types.Identical(t, errorType)
	}
}

// logAndReturnHelpers are in-repo functions that handle their own failure
// (they log it) and return the error only for optional inspection; calls
// that drop that return are deliberate, not accidents. Keyed by package
// path suffix → function names.
var logAndReturnHelpers = map[string][]string{
	"internal/server": {"writeJSON", "writeBytes"},
}

// allowed reports whether the callee is on the never-fails allowlist.
func allowed(pass *analysis.Pass, call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, isMethod := pass.Info.Selections[sel]; isMethod {
			// Methods: allow receivers whose error results are documented to
			// be always nil (in-memory accumulators and hashes). The static
			// receiver type, not the method's declaring package, decides —
			// hash.Hash's Write is declared by the embedded io.Writer.
			return allowedRecv(s.Recv())
		}
	}
	fn := callee(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	// Console printing is allowed: the error from writing to os.Stdout is
	// not actionable in this repo's CLIs.
	if fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return true
	}
	for suffix, names := range logAndReturnHelpers {
		if !analysis.PathMatchesAny(fn.Pkg().Path(), []string{suffix}) {
			continue
		}
		for _, name := range names {
			if fn.Name() == name {
				return true
			}
		}
	}
	return false
}

// callee resolves the called function for both same-package calls (plain
// identifier) and package-qualified or method calls (selector).
func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// allowedRecv reports whether a method receiver type belongs to bytes,
// strings, or one of the hash packages.
func allowedRecv(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg := named.Obj().Pkg().Path()
	return pkg == "bytes" || pkg == "strings" || pkg == "hash" || strings.HasPrefix(pkg, "hash/")
}
