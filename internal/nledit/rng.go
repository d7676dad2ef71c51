package nledit

import "math/rand"

// lazySource is a rand.Source64 that yields exactly the stream of
// rand.NewSource(seed), but defers the seeding work. math/rand's Seed fills
// all 607 words of its lagged-Fibonacci register from 1,841 Park–Miller
// steps x ← 48271·x mod (2³¹−1); a vis query then draws a few dozen numbers
// and each draw reads two words. Word i of the seeded register depends only
// on the seed and on steps 21+3i, 22+3i and 23+3i, so Seed stores the
// normalized seed and clears a "computed" mask, and each word is filled
// from a table of powers of 48271 on its first read.
type lazySource struct {
	tap, feed int
	x0        uint64                     // normalized seed, in [1, 2³¹−2]
	done      [(rngLen + 63) / 64]uint64 // bit i set: vec[i] holds its value
	vec       [rngLen]int64
}

// The register geometry and seed modulus of math/rand's rngSource.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

var (
	// seedPow[3i+k] is 48271^(21+3i+k) mod (2³¹−1): the Park–Miller steps
	// that make word i of a freshly seeded register.
	seedPow [3 * rngLen]uint64
	// rngCooked is math/rand's fixed table, XORed into every seeded word.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for n := 1; n < 21+len(seedPow); n++ {
		p = p * 48271 % int32max
		if n >= 21 {
			seedPow[n-21] = p
		}
	}
	// Recover rngCooked from the first rngLen outputs of rand.NewSource(1).
	// Draw k (from 1) writes its output to feed position (rngLen−rngTap−k)
	// mod rngLen, so those outputs are the whole register after rngLen
	// draws; undoing the draws in reverse gives the seeded register, and
	// XORing out the seed-1 words leaves the table.
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	feed := func(k int) int { return ((rngLen-rngTap-k)%rngLen + rngLen) % rngLen }
	for k := 1; k <= rngLen; k++ {
		vec[feed(k)] = int64(src.Uint64())
	}
	for k := rngLen; k >= 1; k-- {
		vec[feed(k)] -= vec[rngLen-k]
	}
	for i := range vec {
		rngCooked[i] = vec[i] ^ seedWord(1, i)
	}
}

// seedWord is word i of the register seeded with x0, before the XOR with
// rngCooked.
func seedWord(x0 uint64, i int) int64 {
	a := seedPow[3*i] * x0 % int32max
	b := seedPow[3*i+1] * x0 % int32max
	c := seedPow[3*i+2] * x0 % int32max
	return int64(a)<<40 ^ int64(b)<<20 ^ int64(c)
}

// Seed resets the source to the stream of rand.NewSource(seed).
func (s *lazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.done = [len(s.done)]uint64{}
}

// word returns vec[i], computing it on its first read since Seed.
func (s *lazySource) word(i int) int64 {
	if s.done[i/64]&(1<<(i%64)) == 0 {
		s.vec[i] = seedWord(s.x0, i) ^ rngCooked[i]
		s.done[i/64] |= 1 << (i % 64)
	}
	return s.vec[i]
}

// Uint64 advances the register as math/rand's rngSource does.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
