// Package bleu implements the BLEU metric (Papineni et al., ACL 2002) used
// by the paper (Table 3) to quantify syntactic diversity between NL variants
// of the same vis query: scores near 0 mean diverse wordings, near 1 mean
// near-duplicates.
package bleu

import (
	"math"
	"slices"
	"strings"
)

// MaxOrder is the maximum n-gram order (standard BLEU-4).
const MaxOrder = 4

// Tokenize lower-cases a sentence and splits it into word tokens, stripping
// trailing punctuation.
func Tokenize(s string) []string {
	fields := strings.Fields(strings.ToLower(s))
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		f = strings.Trim(f, ".,!?;:\"'()")
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

// Prepared is a group of sentences tokenized once, with every n-gram of
// orders 1..MaxOrder interned to an integer key and kept sorted per order.
// Comparing two of its sentences is then a merge of sorted slices per
// order, with no tokenizing and no maps.
type Prepared struct {
	words []int                // token count of each sentence
	grams [][MaxOrder][]uint64 // per sentence and order, the sorted n-gram keys
}

// Prepare tokenizes each sentence and interns its n-grams. Keys are
// comparable only within one Prepared: an order-1 key is the token's id and
// an order-n key packs the id of its (n-1)-gram prefix above its last
// token's id, so two n-grams of one order share a key exactly when they are
// equal, however large the vocabulary.
func Prepare(sentences []string) *Prepared {
	toks := make([][]string, len(sentences))
	total, longest := 0, 0
	for i, s := range sentences {
		toks[i] = Tokenize(s)
		total += len(toks[i])
		longest = max(longest, len(toks[i]))
	}
	p := &Prepared{
		words: make([]int, len(sentences)),
		grams: make([][MaxOrder][]uint64, len(sentences)),
	}
	// Variants of one query share most of their words, so the maps are
	// sized for about half the tokens and bigrams being distinct.
	in := interner{words: make(map[string]uint32, total/2), grams: make(map[uint64]uint32, total)}
	keys := make([]uint64, 0, MaxOrder*total)
	tok := make([]uint32, longest)    // token ids of the current sentence
	prefix := make([]uint32, longest) // ids of the (n-1)-grams starting at each position
	for i, ts := range toks {
		p.words[i] = len(ts)
		for k, t := range ts {
			tok[k] = in.word(t)
		}
		copy(prefix, tok[:len(ts)])
		for n := 1; n <= MaxOrder && n <= len(ts); n++ {
			start := len(keys)
			for k := 0; k+n <= len(ts); k++ {
				key := uint64(tok[k])
				if n > 1 {
					key = uint64(prefix[k])<<32 | uint64(tok[k+n-1])
					if n < MaxOrder {
						prefix[k] = in.gram(key)
					}
				}
				keys = append(keys, key)
			}
			g := keys[start:len(keys):len(keys)]
			slices.Sort(g)
			p.grams[i][n-1] = g
		}
	}
	return p
}

// interner hands out dense ids to tokens and to the n-grams that prefix a
// longer one. Tokens and n-grams draw ids from one counter, so an id names
// its order too and one map holds the keys of every order.
type interner struct {
	words map[string]uint32
	grams map[uint64]uint32
	next  uint32
}

func (in *interner) word(t string) uint32 {
	id, ok := in.words[t]
	if !ok {
		id = in.newID()
		in.words[t] = id
	}
	return id
}

func (in *interner) gram(key uint64) uint32 {
	id, ok := in.grams[key]
	if !ok {
		id = in.newID()
		in.grams[key] = id
	}
	return id
}

func (in *interner) newID() uint32 {
	if in.next == math.MaxUint32 {
		// Beyond this an id would wrap and two n-grams could share a key.
		panic("bleu: more than 2^32-1 distinct tokens and n-grams in one Prepare")
	}
	in.next++
	return in.next
}

// Words returns the token count of sentence i, len(Tokenize(sentences[i])).
func (p *Prepared) Words(i int) int { return p.words[i] }

// Sentence computes smoothed sentence-level BLEU of sentence i as the
// candidate against sentence j as the reference. Smoothing adds 1 to
// numerator and denominator of orders with a zero match count (Lin & Och
// smoothing), so short sentences still score.
func (p *Prepared) Sentence(i, j int) float64 {
	lc, lr := p.words[i], p.words[j]
	if lc == 0 || lr == 0 {
		return 0
	}
	// Use only the n-gram orders both sentences can support, so one-word
	// variants still compare on unigrams.
	effOrder := min(MaxOrder, lc, lr)
	logSum := 0.0
	for n := 1; n <= effOrder; n++ {
		cand := p.grams[i][n-1]
		match, total := clipped(cand, p.grams[j][n-1]), len(cand)
		var prec float64
		switch {
		case match == 0 && n == 1:
			// No shared words at all: the sentences are fully diverse.
			return 0
		case match == 0:
			// Lin & Och style smoothing for the higher orders only.
			prec = 1 / float64(2*total)
		default:
			prec = float64(match) / float64(total)
		}
		logSum += math.Log(prec) / float64(effOrder)
	}
	// Brevity penalty.
	bp := 1.0
	if lc < lr {
		bp = math.Exp(1 - float64(lr)/float64(lc))
	}
	return bp * math.Exp(logSum)
}

// clipped counts the candidate n-grams matched in the reference, each
// reference n-gram matching at most once: the size of the multiset
// intersection of two sorted key slices.
func clipped(cand, ref []uint64) int {
	match, i, j := 0, 0, 0
	for i < len(cand) && j < len(ref) {
		switch {
		case cand[i] < ref[j]:
			i++
		case cand[i] > ref[j]:
			j++
		default:
			match++
			i++
			j++
		}
	}
	return match
}

// Pairwise computes the average BLEU over every ordered pair of distinct
// prepared sentences — the diversity measure of Table 3. With fewer than two
// sentences it returns 0 (maximally diverse by convention).
func (p *Prepared) Pairwise() float64 {
	if len(p.words) < 2 {
		return 0
	}
	sum, n := 0.0, 0
	for i := range p.words {
		for j := range p.words {
			if i == j {
				continue
			}
			sum += p.Sentence(i, j)
			n++
		}
	}
	return sum / float64(n)
}

// Sentence computes smoothed sentence-level BLEU of a candidate against one
// reference; see Prepared.Sentence.
func Sentence(candidate, reference string) float64 {
	return Prepare([]string{candidate, reference}).Sentence(0, 1)
}

// Pairwise computes the average pairwise BLEU of sentences; see
// Prepared.Pairwise.
func Pairwise(sentences []string) float64 {
	if len(sentences) < 2 {
		return 0
	}
	return Prepare(sentences).Pairwise()
}
