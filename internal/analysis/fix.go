package analysis

import (
	"fmt"
	"go/format"
	"os"
	"sort"
	"strings"
)

// This file applies the SuggestedFixes carried by diagnostics — the
// machinery behind nvlint -fix and the analysistest want.fixed golden mode.
// Fixes are applied in diagnostic sort order (the same total order the
// drivers print), and a fix whose edits overlap an already-accepted edit is
// skipped whole rather than half-applied. Rewritten .go files are gofmt'd
// with go/format before they are returned, so -fix output always
// round-trips gofmt-clean.

// Edit replaces the byte range [Start, End) of File with NewText. Start ==
// End is an insertion.
type Edit struct {
	File    string
	Start   int
	End     int
	NewText string
}

// SuggestedFix is one self-contained change a driver may apply for a
// diagnostic: a short imperative message and the edits that implement it.
// All edits of one fix are applied atomically or not at all.
type SuggestedFix struct {
	Message string
	Edits   []Edit
}

// FixResult summarizes an ApplyFixes run.
type FixResult struct {
	// Files lists the rewritten files, sorted.
	Files []string
	// Applied counts fixes whose edits were accepted.
	Applied int
	// Skipped counts fixes dropped because an edit overlapped an
	// already-accepted edit or fell outside its file.
	Skipped int
}

// ApplyFixes applies the fixes carried by diags to the files on disk,
// rewriting each changed file in place with its original permissions.
func ApplyFixes(diags []Diagnostic) (*FixResult, error) {
	sources := map[string][]byte{}
	for _, d := range diags {
		for _, fix := range d.Fixes {
			for _, e := range fix.Edits {
				if _, ok := sources[e.File]; ok {
					continue
				}
				data, err := os.ReadFile(e.File)
				if err != nil {
					return nil, err
				}
				sources[e.File] = data
			}
		}
	}
	changed, applied, skipped, err := ApplyFixesToSource(diags, sources)
	if err != nil {
		return nil, err
	}
	res := &FixResult{Applied: applied, Skipped: skipped}
	for file, data := range changed {
		mode := os.FileMode(0o644)
		if st, err := os.Stat(file); err == nil {
			mode = st.Mode().Perm()
		}
		if err := os.WriteFile(file, data, mode); err != nil {
			return nil, err
		}
		res.Files = append(res.Files, file)
	}
	sort.Strings(res.Files)
	return res, nil
}

// ApplyFixesToSource applies the fixes carried by diags to in-memory file
// contents and returns the new contents of every file that changed, plus
// the applied/skipped fix counts. It is the pure core of ApplyFixes, used
// directly by the analysistest golden-diff mode.
func ApplyFixesToSource(diags []Diagnostic, sources map[string][]byte) (map[string][]byte, int, int, error) {
	ordered := append([]Diagnostic(nil), diags...)
	SortDiagnostics(ordered)

	accepted := map[string][]Edit{}
	var applied, skipped int
	for _, d := range ordered {
		for _, fix := range d.Fixes {
			if fixConflicts(fix, accepted, sources) {
				skipped++
				continue
			}
			for _, e := range fix.Edits {
				accepted[e.File] = append(accepted[e.File], e)
			}
			applied++
		}
	}

	changed := map[string][]byte{}
	for file, edits := range accepted {
		out, err := applyEdits(sources[file], edits)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("analysis: applying fixes to %s: %w", file, err)
		}
		if strings.HasSuffix(file, ".go") {
			formatted, err := format.Source(out)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("analysis: fixes to %s do not parse: %w", file, err)
			}
			out = formatted
		}
		changed[file] = out
	}
	return changed, applied, skipped, nil
}

// fixConflicts reports whether any edit of fix is out of range for its file
// or overlaps an already-accepted edit. A fix that conflicts is skipped
// whole — partial application could leave the file unparseable.
func fixConflicts(fix SuggestedFix, accepted map[string][]Edit, sources map[string][]byte) bool {
	for _, e := range fix.Edits {
		src, ok := sources[e.File]
		if !ok || e.Start < 0 || e.End < e.Start || e.End > len(src) {
			return true
		}
		for _, prev := range accepted[e.File] {
			if editsOverlap(e, prev) {
				return true
			}
		}
		// Edits within one fix must not overlap each other either.
		for _, other := range fix.Edits {
			if other != e && other.File == e.File && editsOverlap(e, other) {
				return true
			}
		}
	}
	return false
}

// editsOverlap reports whether two edits touch intersecting byte ranges.
// Two insertions at the same offset conflict (their order is ambiguous);
// insertions at distinct offsets never do.
func editsOverlap(a, b Edit) bool {
	if a.Start == a.End && b.Start == b.End {
		return a.Start == b.Start
	}
	return a.Start < b.End && b.Start < a.End
}

// applyEdits rewrites src with the accepted edits, applied back-to-front so
// earlier offsets stay valid.
func applyEdits(src []byte, edits []Edit) ([]byte, error) {
	sorted := append([]Edit(nil), edits...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start > sorted[j].Start
		}
		return sorted[i].End > sorted[j].End
	})
	out := append([]byte(nil), src...)
	for _, e := range sorted {
		if e.Start < 0 || e.End < e.Start || e.End > len(out) {
			return nil, fmt.Errorf("edit [%d, %d) out of range", e.Start, e.End)
		}
		out = append(out[:e.Start], append([]byte(e.NewText), out[e.End:]...)...)
	}
	return out, nil
}
