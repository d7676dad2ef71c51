// Package lockcheck guards the serving and store hot paths against the
// three mutex mistakes the race detector cannot reliably surface:
//
//   - a sync.Mutex/RWMutex (or a struct directly embedding one) passed or
//     returned by value — the copy locks independently of the original,
//     which silently voids the exclusion (a copylocks-lite, scoped to
//     function signatures);
//   - an Unlock/RUnlock on a receiver that is never Lock/RLock'd anywhere
//     in the same function — almost always a refactor that split a
//     critical section across functions and lost the acquire;
//   - in the hot-path packages (internal/server, internal/store), a
//     blocking call — time.Sleep, the net/net/http/os/exec dials and
//     requests, (*sync.WaitGroup).Wait — made while a lock is held, which
//     turns one slow peer into a pile-up behind the mutex.
//
// Test files are out of scope: the loader parses only a package's non-test
// files, so tests may hold locks across arbitrary scaffolding.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"nvbench/internal/analysis"
)

// HotPathSuffixes lists the packages where holding a lock across a
// blocking call is flagged; request latency and store commit latency
// multiply directly through these mutexes.
var HotPathSuffixes = []string{"internal/server", "internal/store"}

// Analyzer is the mutex-discipline check.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "mutexes must not be copied, unlocked unpaired, or held across blocking calls\n\n" +
		"Flags sync.Mutex/RWMutex passed by value in signatures, Unlock\n" +
		"without a matching Lock in the same function, and (in the\n" +
		"internal/server and internal/store hot paths) blocking calls made\n" +
		"while a lock is held.",
	Run: run,
}

func run(pass *analysis.Pass) []analysis.Diagnostic {
	hot := analysis.PathMatchesAny(pass.Pkg.Path(), HotPathSuffixes)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkSignature(pass, fn)
			if fn.Body == nil {
				continue
			}
			checkLockPairing(pass, fn, hot)
		}
	}
	return pass.Diagnostics()
}

// checkSignature flags receiver, parameter and result types that carry a
// lock by value.
func checkSignature(pass *analysis.Pass, fn *ast.FuncDecl) {
	report := func(field *ast.Field, what string) {
		t := pass.TypeOf(field.Type)
		if t == nil || !carriesLockByValue(t) {
			return
		}
		pass.Reportf(field.Pos(), "%s of %s carries a lock by value; pass a pointer so the mutex is shared, not copied", what, fn.Name.Name)
	}
	if fn.Recv != nil {
		for _, f := range fn.Recv.List {
			report(f, "receiver")
		}
	}
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			report(f, "parameter")
		}
	}
	if fn.Type.Results != nil {
		for _, f := range fn.Type.Results.List {
			report(f, "result")
		}
	}
}

// carriesLockByValue reports whether t is a sync lock or a struct with a
// direct (non-pointer) lock field. One level deep is the practical
// copylocks net: deeper embeddings go through named types that are flagged
// at their own method sets.
func carriesLockByValue(t types.Type) bool {
	if isSyncLock(t) {
		return true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isSyncLock(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// isSyncLock reports whether t (not a pointer to it) is sync.Mutex or
// sync.RWMutex.
func isSyncLock(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockEvent is one Lock/Unlock-family call in a function body.
type lockEvent struct {
	pos      token.Pos
	recv     string // receiver expression, canonicalized by types.ExprString
	name     string // Lock, Unlock, RLock, RUnlock
	deferred bool
}

// checkLockPairing collects the function's lock events, flags unpaired
// unlocks, and (in hot-path packages) flags blocking calls inside held
// spans.
func checkLockPairing(pass *analysis.Pass, fn *ast.FuncDecl, hot bool) {
	var events []lockEvent
	var blocking []*ast.CallExpr
	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if d, ok := m.(*ast.DeferStmt); ok {
				walk(d.Call, true)
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if ev, ok := asLockEvent(pass, call, deferred); ok {
				events = append(events, ev)
				return true
			}
			if hot && isBlockingCall(pass, call) {
				blocking = append(blocking, call)
			}
			return true
		})
	}
	walk(fn.Body, false)

	// Rule: every Unlock needs a Lock on the same receiver in this function.
	for _, ev := range events {
		if ev.name != "Unlock" && ev.name != "RUnlock" {
			continue
		}
		want := "Lock"
		if ev.name == "RUnlock" {
			want = "RLock"
		}
		if !hasLock(events, ev.recv, want) {
			pass.Reportf(ev.pos, "%s.%s without a matching %s in the same function; acquire and release must stay in one scope", ev.recv, ev.name, want)
		}
	}

	if !hot {
		return
	}
	// Rule: no blocking call inside a held span. A span opens at a
	// non-deferred Lock/RLock and closes at the first later non-deferred
	// matching unlock on the same receiver, or at function end when the
	// unlock is deferred.
	for _, call := range blocking {
		if recv, ok := heldAt(events, call.Pos()); ok {
			pass.Reportf(call.Pos(), "blocking call while holding %s; release the lock before blocking or move the call out of the critical section", recv)
		}
	}
}

// asLockEvent matches a call to one of sync's lock methods.
func asLockEvent(pass *analysis.Pass, call *ast.CallExpr, deferred bool) (lockEvent, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockEvent{}, false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return lockEvent{pos: call.Pos(), recv: types.ExprString(sel.X), name: fn.Name(), deferred: deferred}, true
	}
	return lockEvent{}, false
}

// hasLock reports whether events contains an acquire with the given
// receiver and name.
func hasLock(events []lockEvent, recv, name string) bool {
	for _, ev := range events {
		if ev.recv == recv && ev.name == name {
			return true
		}
	}
	return false
}

// heldAt reports whether any lock span covers pos, returning the receiver
// expression of the covering lock.
func heldAt(events []lockEvent, pos token.Pos) (string, bool) {
	for _, acq := range events {
		if acq.deferred || (acq.name != "Lock" && acq.name != "RLock") || acq.pos >= pos {
			continue
		}
		end := token.Pos(-1) // -1: held to function end (deferred or missing unlock)
		for _, rel := range events {
			if rel.deferred || rel.recv != acq.recv || rel.pos <= acq.pos {
				continue
			}
			if (acq.name == "Lock" && rel.name == "Unlock") || (acq.name == "RLock" && rel.name == "RUnlock") {
				if end == token.Pos(-1) || rel.pos < end {
					end = rel.pos
				}
			}
		}
		if end == token.Pos(-1) || pos < end {
			return acq.recv, true
		}
	}
	return "", false
}

// blockingPkgs are the stdlib packages whose calls block on external
// progress.
var blockingPkgs = map[string]bool{
	"net":      true,
	"net/http": true,
	"os/exec":  true,
}

// isBlockingCall matches time.Sleep, any net/net\/http/os\/exec function or
// method, and (*sync.WaitGroup).Wait.
func isBlockingCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	switch {
	case path == "time" && fn.Name() == "Sleep":
		return true
	case blockingPkgs[path]:
		return true
	case path == "sync" && fn.Name() == "Wait":
		return true
	}
	return false
}
