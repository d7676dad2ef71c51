// Package obslabel guards the observability layer's naming contract so
// that dashboards, the golden Prometheus exposition and the README metric
// table never drift from the code:
//
//   - metric base names and label keys must be canonical
//     lowercase_underscore identifiers ([a-z][a-z0-9_]*). String-literal
//     violations carry a suggested fix applied by nvlint -fix;
//   - counters (Registry.Counter, Instruments.Inc/Add) must end _total and
//     histograms (Registry.Histogram) must end _seconds, while gauges must
//     end in neither — the Prometheus type conventions the exposition tests
//     assume;
//   - inside the obs packages, every package-level _seconds constant must
//     be referenced by RegisterBase, so the full histogram schema is
//     visible on a /metrics scrape before the first request or build
//     touches a series;
//   - wide-event field keys — the literal kv keys of Timing.End calls,
//     which become JSON field names in /debug/events and -trace
//     span args — must be canonical identifiers too.
package obslabel

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"nvbench/internal/analysis"
)

// ObsPackageSuffixes lists the packages that define the metrics registry
// (the L helper, Registry, Instruments, RegisterBase).
var ObsPackageSuffixes = []string{"internal/obs"}

// nameRe is the canonical shape of a metric base name or label key.
var nameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Analyzer is the metric/label naming check.
var Analyzer = &analysis.Analyzer{
	Name: "obslabel",
	Doc: "metric names, label keys and wide-event field keys must be\n" +
		"canonical lowercase_underscore\n\n" +
		"Counters end _total, histograms end _seconds, gauges end in\n" +
		"neither, label keys match [a-z][a-z0-9_]*, and every _seconds\n" +
		"constant in internal/obs is pre-registered by RegisterBase so the\n" +
		"schema is scrapeable before traffic. Wide-event Timing.End calls\n" +
		"must use canonical literal field keys (they become JSON field names in\n" +
		"/debug/events and -trace span args). Literal violations carry a\n" +
		"suggested fix for nvlint -fix.",
	Run: run,
}

// metricKinds maps metric-creating functions of the obs packages to the
// suffix rule their names must obey.
var metricKinds = map[string]string{
	"Counter":   "counter",
	"Inc":       "counter",
	"Add":       "counter",
	"Histogram": "histogram",
	"Observe":   "histogram",
	"ObserveEx": "histogram",
	"Gauge":     "gauge",
}

func run(pass *analysis.Pass) []analysis.Diagnostic {
	// Test files are exempt: registry tests mint throwaway series names
	// that deliberately ignore the production conventions.
	var files []*ast.File
	for _, file := range pass.Files {
		if !strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			files = append(files, file)
		}
	}
	analysis.Preorder(files, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || !analysis.PathMatchesAny(fn.Pkg().Path(), ObsPackageSuffixes) {
			return
		}
		if fn.Name() == "L" && len(call.Args) >= 1 {
			checkLabelCall(pass, call)
			return
		}
		if fn.Name() == "End" {
			checkEventFields(pass, call)
			return
		}
		if kind, ok := metricKinds[fn.Name()]; ok && len(call.Args) >= 1 {
			checkMetricName(pass, call.Args[0], kind)
		}
	})
	if analysis.PathMatchesAny(pass.Pkg.Path(), ObsPackageSuffixes) {
		checkPreRegistration(pass)
	}
	return pass.Diagnostics()
}

// checkLabelCall validates an obs.L(base, k1, v1, ...) call: the base must
// be a canonical metric name and every label key a canonical identifier.
// Label values are free-form.
func checkLabelCall(pass *analysis.Pass, call *ast.CallExpr) {
	checkName(pass, call.Args[0], "metric name")
	for i := 1; i < len(call.Args); i += 2 {
		checkName(pass, call.Args[i], "label key")
	}
}

// checkEventFields validates the kv extras of a Timing.End(outcome,
// kv...) call, the one writer of wide events, whose literal field keys
// sit at argument indices 1, 3, …. They become JSON field names in
// /debug/events and -trace span args, so they obey the same canonical
// shape as label keys. A spread (kv...) is opaque and skipped.
func checkEventFields(pass *analysis.Pass, call *ast.CallExpr) {
	if call.Ellipsis.IsValid() {
		return
	}
	for i := 1; i < len(call.Args); i += 2 {
		checkName(pass, call.Args[i], "event field key")
	}
}

// checkMetricName validates the name argument of a metric-creating call:
// canonical characters plus the per-kind suffix convention. Non-constant
// names (built via L or helpers) are skipped; L's base was checked at its
// own call site.
func checkMetricName(pass *analysis.Pass, arg ast.Expr, kind string) {
	name, ok := constString(pass, arg)
	if !ok {
		return
	}
	base := name
	if i := strings.IndexByte(base, '{'); i >= 0 {
		base = base[:i]
	}
	checkName(pass, arg, "metric name")
	switch kind {
	case "counter":
		if !strings.HasSuffix(base, "_total") {
			pass.Reportf(arg.Pos(), "counter %q must end in _total", base)
		}
	case "histogram":
		if !strings.HasSuffix(base, "_seconds") {
			pass.Reportf(arg.Pos(), "histogram %q must end in _seconds", base)
		}
	case "gauge":
		if strings.HasSuffix(base, "_total") || strings.HasSuffix(base, "_seconds") {
			pass.Reportf(arg.Pos(), "gauge %q must not use the _total/_seconds suffixes", base)
		}
	}
}

// checkName flags a non-canonical constant name argument. When the
// argument is a string literal the diagnostic carries a fix rewriting it
// to the canonical form.
func checkName(pass *analysis.Pass, arg ast.Expr, what string) {
	name, ok := constString(pass, arg)
	if !ok {
		return
	}
	base := name
	if i := strings.IndexByte(base, '{'); i >= 0 {
		base = base[:i]
	}
	if nameRe.MatchString(base) {
		return
	}
	canon := Canonicalize(base)
	msg := "%s %q is not canonical lowercase_underscore; use %q"
	if lit, isLit := ast.Unparen(arg).(*ast.BasicLit); isLit && base == name {
		fix := analysis.SuggestedFix{
			Message: "canonicalize to " + strconv.Quote(canon),
			Edits:   []analysis.Edit{pass.NewEdit(lit.Pos(), lit.End(), strconv.Quote(canon))},
		}
		pass.ReportWithFix(arg.Pos(), fix, msg, what, base, canon)
		return
	}
	pass.Reportf(arg.Pos(), msg, what, base, canon)
}

// Canonicalize rewrites a name into the canonical lowercase_underscore
// form: letters lowered, every other rune folded to an underscore, runs
// collapsed, and a leading x_ prefix when the name would not start with a
// letter.
func Canonicalize(name string) string {
	var sb strings.Builder
	lastUnderscore := false
	for _, r := range strings.ToLower(name) {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')
		if !ok {
			r = '_'
		}
		if r == '_' {
			if lastUnderscore || sb.Len() == 0 {
				continue
			}
			lastUnderscore = true
		} else {
			lastUnderscore = false
		}
		sb.WriteRune(r)
	}
	out := strings.TrimSuffix(sb.String(), "_")
	if out == "" || out[0] < 'a' || out[0] > 'z' {
		out = "x_" + out
	}
	return out
}

// checkPreRegistration enforces that every package-level _seconds constant
// in an obs package is referenced inside RegisterBase, the function that
// exposes the schema at zero before traffic.
func checkPreRegistration(pass *analysis.Pass) {
	var register *ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "RegisterBase" {
				register = fn
			}
		}
	}
	if register == nil || register.Body == nil {
		return // package without a schema exporter; nothing to pin
	}
	referenced := map[types.Object]bool{}
	ast.Inspect(register.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil {
				referenced[obj] = true
			}
		}
		return true
	})
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val() == nil || c.Val().Kind() != constant.String {
			continue
		}
		if !strings.HasSuffix(constant.StringVal(c.Val()), "_seconds") {
			continue
		}
		if !referenced[c] {
			pass.Reportf(c.Pos(), "histogram constant %s (%s) is not pre-registered in RegisterBase; scrapes before traffic will miss its schema", name, constant.StringVal(c.Val()))
		}
	}
}

// constString folds an expression to its constant string value.
func constString(pass *analysis.Pass, arg ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
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
