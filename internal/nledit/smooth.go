package nledit

import "math/rand"

// Smooth is the back-translation substitute: the paper round-trips each
// rule-edited sentence through machine translation (English → French →
// English) to make it read naturally. Offline, the same effect — surface
// variation with preserved semantics — comes from a deterministic
// paraphrase pass: a pivot lexicon substitutes common analytics phrasing,
// imperative openings soften, and rule-concatenation artifacts disappear.
//
// Phrases are found by an ASCII case-insensitive search over the sentence
// itself, so a match's offsets always index the string being edited. A
// non-ASCII rune never matches a phrase letter, not even one that lowercases
// to ASCII such as the Kelvin sign.
func Smooth(s string, r *rand.Rand) string {
	out := s
	for _, sub := range pivotLexicon {
		i := indexFold(out, sub.from)
		if i < 0 {
			continue
		}
		// Substitute probabilistically so different variants diverge, as
		// independent MT round trips would.
		if r.Float64() < 0.6 {
			out = out[:i] + sub.to[r.Intn(len(sub.to))] + out[i+len(sub.from):]
		}
	}
	out = tidy(out)
	return upperFirst(out)
}

// pivotLexicon maps source phrasings to paraphrases, mimicking what an
// EN→FR→EN round trip does to analytic vocabulary.
var pivotLexicon = []struct {
	from string
	to   []string
}{
	{"how many", []string{"what is the number of", "how many"}},
	{"show me", []string{"display", "present"}},
	{"give me", []string{"provide", "return"}},
	{"for each", []string{"per", "for every"}},
	{"find the", []string{"retrieve the", "get the"}},
	{"list the", []string{"enumerate the", "show the"}},
	{"what are the", []string{"which are the", "what are the"}},
	{"in descending order", []string{"from largest to smallest", "in decreasing order"}},
	{"in ascending order", []string{"from smallest to largest", "in increasing order"}},
	{"greater than", []string{"above", "more than"}},
	{"less than", []string{"below", "under"}},
	{"the number of", []string{"the count of", "the total number of"}},
	{"do we have", []string{"are there", "exist"}},
}

// indexFold returns the byte offset of the first occurrence in s of the
// lowercase ASCII phrase, comparing ASCII letters case-insensitively, or -1.
// The phrase must start with a letter.
func indexFold(s, phrase string) int {
	first := phrase[0]
	for i := 0; i+len(phrase) <= len(s); i++ {
		// Setting the case bit maps exactly the two cases of the letter
		// to first.
		if s[i]|('a'-'A') == first && hasPrefixFold(s[i+1:], phrase[1:]) {
			return i
		}
	}
	return -1
}

// hasPrefixFold reports whether s starts with the lowercase ASCII phrase,
// comparing ASCII letters case-insensitively.
func hasPrefixFold(s, phrase string) bool {
	for j := 0; j < len(phrase); j++ {
		c := s[j]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != phrase[j] {
			return false
		}
	}
	return true
}
