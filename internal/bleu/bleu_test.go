package bleu

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// oracleSentence is the original map-based sentence BLEU, kept as the
// oracle that the prepared form must match bit for bit. Only its n-gram
// key differs from the original (see oracleNgrams).
func oracleSentence(candidate, reference string) float64 {
	cand := Tokenize(candidate)
	ref := Tokenize(reference)
	if len(cand) == 0 || len(ref) == 0 {
		return 0
	}
	effOrder := MaxOrder
	if len(cand) < effOrder {
		effOrder = len(cand)
	}
	if len(ref) < effOrder {
		effOrder = len(ref)
	}
	logSum := 0.0
	for n := 1; n <= effOrder; n++ {
		cGrams := oracleNgrams(cand, n)
		rGrams := oracleNgrams(ref, n)
		match, total := 0, 0
		for g, c := range cGrams {
			total += c
			if rc, ok := rGrams[g]; ok {
				if c < rc {
					match += c
				} else {
					match += rc
				}
			}
		}
		var p float64
		switch {
		case total == 0:
			continue
		case match == 0 && n == 1:
			return 0
		case match == 0:
			p = 1 / float64(2*total)
		default:
			p = float64(match) / float64(total)
		}
		logSum += math.Log(p) / float64(effOrder)
	}
	bp := 1.0
	if len(cand) < len(ref) {
		bp = math.Exp(1 - float64(len(ref))/float64(len(cand)))
	}
	return bp * math.Exp(logSum)
}

// oracleNgrams counts the n-grams of tokens, keyed by their length-prefixed
// tokens. The original joined them with "\x1f", which a token may contain,
// so two different n-grams could share a key (TestSeparatorDoesNotAlias).
func oracleNgrams(tokens []string, n int) map[string]int {
	out := map[string]int{}
	for i := 0; i+n <= len(tokens); i++ {
		var key strings.Builder
		for _, t := range tokens[i : i+n] {
			key.WriteString(strconv.Itoa(len(t)))
			key.WriteByte(':')
			key.WriteString(t)
		}
		out[key.String()]++
	}
	return out
}

// oraclePairwise is the original Pairwise over oracleSentence.
func oraclePairwise(sentences []string) float64 {
	if len(sentences) < 2 {
		return 0
	}
	sum, n := 0.0, 0
	for i := range sentences {
		for j := range sentences {
			if i == j {
				continue
			}
			sum += oracleSentence(sentences[i], sentences[j])
			n++
		}
	}
	return sum / float64(n)
}

// checkOracle fails t unless Sentence over every ordered pair, Pairwise,
// and the prepared word counts all equal the oracle exactly.
func checkOracle(t *testing.T, sentences []string) {
	t.Helper()
	p := Prepare(sentences)
	for i, c := range sentences {
		if got, want := p.Words(i), len(Tokenize(c)); got != want {
			t.Fatalf("Words(%d) = %d, want %d for %.60q", i, got, want, c)
		}
		for j, r := range sentences {
			want := math.Float64bits(oracleSentence(c, r))
			if got := math.Float64bits(Sentence(c, r)); got != want {
				t.Fatalf("Sentence(%.60q, %.60q) = %v, oracle %v", c, r, math.Float64frombits(got), math.Float64frombits(want))
			}
			if got := math.Float64bits(p.Sentence(i, j)); got != want {
				t.Fatalf("prepared Sentence(%.60q, %.60q) = %v, oracle %v", c, r, math.Float64frombits(got), math.Float64frombits(want))
			}
		}
	}
	if got, want := Pairwise(sentences), oraclePairwise(sentences); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Pairwise(%.60q) = %v, oracle %v", sentences, got, want)
	}
}

// Property: prepared BLEU equals the oracle bit for bit on generated
// sentence groups that mix repeats, punctuation-only tokens, empty and
// blank strings, and sentences of one to three tokens.
func TestPreparedMatchesOracle(t *testing.T) {
	words := []string{"show", "Show", "bar", "chart", "the", "of", "a", "count,", "(year)", "origin.", "!", "...", "\"'", "\u00e9t\u00e9", ""}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		group := make([]string, r.Intn(6))
		for i := range group {
			var n int
			switch r.Intn(4) {
			case 0:
				n = 0
			case 1, 2:
				n = 1 + r.Intn(3)
			default:
				n = 4 + r.Intn(12)
			}
			if i > 0 && r.Intn(4) == 0 {
				group[i] = group[r.Intn(i)] // a repeated variant
				continue
			}
			parts := make([]string, n)
			for k := range parts {
				parts[k] = words[r.Intn(len(words))]
			}
			group[i] = strings.Join(parts, strings.Repeat(" ", 1+r.Intn(2)))
		}
		checkOracle(t, group)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// A 16-bit-per-token key would wrap past 65,536 distinct tokens, so that
// token 65,536+k shares an id with token k. The second sentence is built
// of 4-grams that would then alias 4-grams of the first.
func TestPreparedMatchesOracleLargeVocabulary(t *testing.T) {
	const vocab = 66000
	w := func(i int) string { return fmt.Sprintf("w%d", i) }
	distinct := make([]string, vocab)
	for i := range distinct {
		distinct[i] = w(i)
	}
	var aliased []string
	for k := 0; 65536+k < vocab; k++ {
		aliased = append(aliased, w(65536+k), w(k+1), w(k+2), w(k+3))
	}
	checkOracle(t, []string{strings.Join(distinct, " "), strings.Join(aliased, " ")})
}

// The old code keyed n-grams by joining tokens with "\x1f", so the bigrams
// ("a\x1fb", "c") and ("a", "b\x1fc") matched, and so did the two trigrams.
// Prepared keys tell them apart: only "x" matches.
func TestSeparatorDoesNotAlias(t *testing.T) {
	got := Sentence("a\x1fb c x", "a b\x1fc x")
	// Unigram precision 1/3; bigrams and trigrams unmatched, smoothed to
	// 1/(2·2) and 1/(2·1).
	want := math.Exp((math.Log(1.0/3) + math.Log(1.0/4) + math.Log(1.0/2)) / 3)
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("Sentence = %v, want %v", got, want)
	}
}

// FuzzPairwise checks prepared BLEU against the oracle on arbitrary text.
func FuzzPairwise(f *testing.F) {
	f.Add("show the number of flights for each origin", "for each origin show the number of flights", "a a a a")
	f.Add("", "hello world", "hello")
	f.Add("... !! ?", "A, a; A.", "(x) x x")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		checkOracle(t, []string{a, b, c})
		checkOracle(t, []string{a, b})
	})
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Show me the Proportion, please!")
	want := []string{"show", "me", "the", "proportion", "please"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if len(Tokenize("  ")) != 0 {
		t.Error("blank input should tokenize to nothing")
	}
}

func TestSentenceIdentical(t *testing.T) {
	s := "draw a bar chart of flights per origin airport"
	if got := Sentence(s, s); got < 0.999 {
		t.Errorf("identical BLEU = %g, want ~1", got)
	}
}

func TestSentenceDisjoint(t *testing.T) {
	got := Sentence("alpha beta gamma delta epsilon", "one two three four five")
	if got > 0.1 {
		t.Errorf("disjoint BLEU = %g, want ~0", got)
	}
}

func TestSentenceEmpty(t *testing.T) {
	if Sentence("", "hello world") != 0 {
		t.Error("empty candidate should score 0")
	}
	if Sentence("hello world", "") != 0 {
		t.Error("empty reference should score 0")
	}
}

func TestSentenceOrderingSensitivity(t *testing.T) {
	a := "show the number of flights for each origin"
	b := "for each origin show the number of flights"
	score := Sentence(a, b)
	if score <= 0 || score >= 1 {
		t.Errorf("reordered BLEU = %g, want strictly between 0 and 1", score)
	}
	// A paraphrase shares fewer n-grams than a reordering of itself.
	c := "visualize how many departures leave per airport"
	if Sentence(a, c) >= score {
		t.Errorf("paraphrase BLEU %g should be below reorder BLEU %g", Sentence(a, c), score)
	}
}

func TestBrevityPenalty(t *testing.T) {
	ref := "show the total number of flights for each origin airport in the dataset"
	short := "show the total"
	long := ref
	if Sentence(short, ref) >= Sentence(long, ref) {
		t.Error("brevity penalty should lower the truncated candidate's score")
	}
}

func TestPairwise(t *testing.T) {
	same := []string{"a b c d", "a b c d", "a b c d"}
	if got := Pairwise(same); got < 0.999 {
		t.Errorf("identical pairwise = %g", got)
	}
	diverse := []string{
		"plot a pie chart of male and female faculty counts",
		"show the proportion between genders among the teaching staff",
		"how many professors do we have of each sex draw it",
	}
	if got := Pairwise(diverse); got > 0.5 {
		t.Errorf("diverse pairwise = %g, want low", got)
	}
	if Pairwise([]string{"only one"}) != 0 {
		t.Error("single sentence pairwise should be 0")
	}
	if Pairwise(nil) != 0 {
		t.Error("empty pairwise should be 0")
	}
}

// Property: BLEU is always within [0, 1].
func TestQuickBounds(t *testing.T) {
	words := []string{"show", "bar", "pie", "chart", "count", "flights", "by", "origin", "year", "the", "of", "a"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() string {
			n := 1 + r.Intn(12)
			parts := make([]string, n)
			for i := range parts {
				parts[i] = words[r.Intn(len(words))]
			}
			return strings.Join(parts, " ")
		}
		s := Sentence(mk(), mk())
		return s >= 0 && s <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sentence(s, s) ≈ 1 for any non-empty sentence.
func TestQuickSelfSimilarity(t *testing.T) {
	words := []string{"list", "sort", "group", "price", "salary", "dept", "total", "per"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[r.Intn(len(words))]
		}
		s := strings.Join(parts, " ")
		return Sentence(s, s) > 0.999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
