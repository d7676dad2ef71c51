package sqlparser

import "testing"

// FuzzTryParse checks that TryParse never panics and that its output is
// a fixed point of rendering: for any input TryParse accepts, the
// rendered SQL parses again and renders to the same text.
func FuzzTryParse(f *testing.F) {
	for _, sql := range roundTripSQL {
		f.Add(sql)
	}
	db := schemaDB()
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := TryParse(sql, db)
		if err != nil {
			return
		}
		rendered := q.SQL()
		q2, err := TryParse(rendered, db)
		if err != nil {
			t.Fatalf("re-parse of %q (rendered from %q): %v", rendered, sql, err)
		}
		if again := q2.SQL(); again != rendered {
			t.Fatalf("render is not a fixed point:\n  input  %q\n  first  %q\n  second %q", sql, rendered, again)
		}
	})
}
