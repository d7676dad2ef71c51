// Package fsyncorder guards the store's crash-consistency protocol: every
// artifact that internal/store commits must land via the temp → fsync →
// rename → fsync-dir sequence (store.writeArtifact), because PR 4's crash
// sweeps only prove durability for writes that follow it. In the store
// packages it flags the ways a write can slip past the protocol:
//
//   - os.WriteFile and os.Create put bytes on a committed path with no
//     fsync and no atomic rename — a crash can leave a torn, visible file;
//   - os.OpenFile with a write mode in a function that never calls
//     (*os.File).Sync — the data may still be in the page cache when the
//     "write" returns;
//   - os.Rename with no directory sync afterwards in the same function —
//     the rename itself is not durable until the parent directory is
//     fsynced (this is the bug class moveAside had);
//   - os.Link and os.Symlink — a replicated store's copies under
//     replicas/rK must be independent byte copies written through the
//     same protocol; a hard link shares the primary's inode and a
//     symlink resolves to it, so one bad sector silently corrupts every
//     "replica" at once and scrubbing has nothing to repair from.
//
// The replica write paths (replica fan-out in Save, scrub repairs,
// cross-replica heals in Repair) all stage through box.writeArtifact, so
// the same four rules cover them; the link rules exist because linking is
// the one tempting shortcut that passes every fsync check while still
// destroying replica independence.
//
// os.CreateTemp is always allowed: temp files are the protocol's first
// step and are swept on recovery. Test files are exempt — tests routinely
// fabricate corrupt stores with raw writes.
package fsyncorder

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"strings"

	"nvbench/internal/analysis"
)

// StorePackageSuffixes lists the packages whose writes must follow the
// temp→fsync→rename→fsync-dir protocol.
var StorePackageSuffixes = []string{"internal/store"}

// DirSyncFuncs names the in-repo helpers that fsync a directory; a rename
// followed by a call to one of these (in the same function) is durable.
var DirSyncFuncs = []string{"syncDir"}

// Analyzer is the crash-consistency write-order check.
var Analyzer = &analysis.Analyzer{
	Name: "fsyncorder",
	Doc: "store writes must follow temp→fsync→rename→fsync-dir\n\n" +
		"In internal/store, raw os.WriteFile/os.Create bypass the durable\n" +
		"write protocol, an os.OpenFile writer must fsync before returning,\n" +
		"and an os.Rename needs a directory sync (syncDir) after it in the\n" +
		"same function, or the rename is not crash-durable. Replica copies\n" +
		"must be written, never linked: os.Link/os.Symlink share storage\n" +
		"with the primary, so the copies are not independent.",
	Run: run,
}

// writeFlags are the os.OpenFile mode bits that make a handle writable.
// Taken from the running platform's os package, which is also what the
// loader type-checks analyzed code against, so folded constants compare in
// the same value space.
var writeFlags = int64(os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREATE | os.O_TRUNC)

func run(pass *analysis.Pass) []analysis.Diagnostic {
	if !analysis.PathMatchesAny(pass.Pkg.Path(), StorePackageSuffixes) {
		return nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return pass.Diagnostics()
}

// checkFunc applies all rules within one function body: the always-banned
// calls report immediately, and the OpenFile/Rename rules match against
// the function's Sync and syncDir call positions.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	var (
		opens    []*ast.CallExpr // os.OpenFile with write flags
		renames  []*ast.CallExpr // os.Rename
		fileSync []token.Pos     // (*os.File).Sync call positions
		dirSync  []token.Pos     // DirSyncFuncs call positions
	)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass, call)
		if callee == nil {
			return true
		}
		if isFileSync(callee) {
			fileSync = append(fileSync, call.Pos())
			return true
		}
		for _, name := range DirSyncFuncs {
			if callee.Name() == name && callee.Pkg() == pass.Pkg {
				dirSync = append(dirSync, call.Pos())
				return true
			}
		}
		if callee.Pkg() == nil || callee.Pkg().Path() != "os" {
			return true
		}
		switch callee.Name() {
		case "WriteFile":
			pass.Reportf(call.Pos(), "os.WriteFile bypasses the temp→fsync→rename protocol; stage through os.CreateTemp, Sync, then Rename")
		case "Create":
			pass.Reportf(call.Pos(), "os.Create writes a committed path in place; stage through os.CreateTemp, Sync, then Rename")
		case "OpenFile":
			if opensForWrite(pass, call) {
				opens = append(opens, call)
			}
		case "Rename":
			renames = append(renames, call)
		case "Link":
			pass.Reportf(call.Pos(), "os.Link shares the source's inode; a linked replica copy is not independent durability — write the bytes through writeArtifact instead")
		case "Symlink":
			pass.Reportf(call.Pos(), "os.Symlink resolves to the primary copy; a symlinked replica copy is not independent durability — write the bytes through writeArtifact instead")
		}
		return true
	})
	for _, call := range opens {
		if !anySync(fileSync) {
			pass.Reportf(call.Pos(), "os.OpenFile with write flags in %s but no (*os.File).Sync before returning; fsync the file or route through writeArtifact", fn.Name.Name)
		}
	}
	for _, call := range renames {
		if !syncAfter(dirSync, call.Pos()) {
			pass.Reportf(call.Pos(), "os.Rename in %s without a directory sync after it; call %s on the destination's parent to make the rename durable", fn.Name.Name, DirSyncFuncs[0])
		}
	}
}

// anySync reports whether the function contains any file-sync call at all.
// Position is deliberately not checked: writers commonly sync from a defer
// or an error-handling closure that lexically precedes the write.
func anySync(syncs []token.Pos) bool { return len(syncs) > 0 }

// syncAfter reports whether any directory sync appears after pos — the
// rename-then-fsync-parent ordering writeArtifact uses.
func syncAfter(syncs []token.Pos, pos token.Pos) bool {
	for _, p := range syncs {
		if p > pos {
			return true
		}
	}
	return false
}

// opensForWrite reports whether an os.OpenFile call's folded flag argument
// includes any write-mode bit. A flag that cannot be folded to a constant
// is treated as a write to stay conservative.
func opensForWrite(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false
	}
	tv, ok := pass.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return true
	}
	flags, ok := constant.Int64Val(tv.Value)
	if !ok {
		return true
	}
	return flags&writeFlags != 0
}

// isFileSync reports whether fn is the Sync method of *os.File.
func isFileSync(fn *types.Func) bool {
	if fn.Name() != "Sync" || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// calleeFunc resolves the called function object, or nil for indirect
// calls, conversions and builtins.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
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
