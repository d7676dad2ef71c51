package ast

import "testing"

// FuzzParseString checks the canonical form on arbitrary input: ParseString
// never panics, and whatever it accepts renders (q.String()) to a line that
// parses back to an Equal tree and renders to itself again.
func FuzzParseString(f *testing.F) {
	for _, line := range canonicalLines {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		q, err := ParseString(line)
		if err != nil {
			return
		}
		rendered := q.String()
		q2, err := ParseString(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q (rendered from %q): %v", rendered, line, err)
		}
		if !q.Equal(q2) {
			t.Fatalf("re-parsed tree differs:\n  input    %q\n  rendered %q", line, rendered)
		}
		if again := q2.String(); again != rendered {
			t.Fatalf("render is not a fixed point:\n  input  %q\n  first  %q\n  second %q", line, rendered, again)
		}
	})
}
