package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// refWork is a fixed piece of CPU work the benchmark runs between the
// program's operations, as a yardstick for how fast the host runs code at
// that moment. One round does what the program does most: string hashing
// in map lookups, sorting strings, hashing bytes, and scattered reads over
// a table larger than the core's own caches. It works on data built once
// and allocates nothing afterwards, so the program's heap cannot slow it.
//
// On the shared two-vCPU host the benchmark was tuned on, the CPU time of
// one and the same corpus build, rebuilt for 90 s, moved by 24% between
// the medians of 9-second windows; the round time's window medians moved
// with it (correlation 0.96), and the build's time over the round time
// moved by 10%. Over ten runs of the build workload, the median build
// CPU time ranged over a third (438-592 ms) and the scaled one over a
// tenth (403-446 ms).
type refWork struct {
	keys   []string
	index  map[string]int
	sorted []string // scratch for sorting a copy of keys
	table  []uint64 // 4 MiB of scattered-read targets
	block  []byte
	sink   uint64
}

const (
	refKeys  = 4096
	refTable = 1 << 19 // uint64s
)

// refRoundNominal is the reference round's CPU time on the scale every
// reported time is put on: about what it takes on a quiet host.
const refRoundNominal = time.Millisecond

// refWindow is how many reference samples on each side of an operation
// its scale is taken over.
const refWindow = 8

func newRefWork() *refWork {
	rng := rand.New(rand.NewSource(1))
	r := &refWork{index: make(map[string]int, refKeys), sorted: make([]string, refKeys),
		table: make([]uint64, refTable), block: make([]byte, 8192)}
	for i := range refKeys {
		k := fmt.Sprintf("db_%d.table_%d.column_%x", rng.Intn(40), rng.Intn(12), rng.Int63())
		r.keys = append(r.keys, k)
		r.index[k] = i
	}
	for i := range r.table {
		r.table[i] = uint64(rng.Int63n(refTable))
	}
	rng.Read(r.block)
	return r
}

// round runs one fixed round of the work.
func (r *refWork) round() {
	var acc uint64
	for _, k := range r.keys {
		acc += uint64(r.index[k])
	}
	copy(r.sorted, r.keys)
	slices.Sort(r.sorted)
	acc += uint64(len(r.sorted[refKeys/2]))
	for range 4 {
		s := sha256.Sum256(r.block)
		acc += binary.LittleEndian.Uint64(s[:])
	}
	j := acc % refTable
	for range 8192 {
		j = r.table[j]
		acc += j
	}
	r.sink += acc
}

// roundTime runs one untimed round, to bring the work's data back into
// the caches the program's operation took it out of, then rounds timed
// rounds on a thread of its own. It returns the CPU time that thread spent
// per timed round; other threads, the collector's among them, do not
// count.
func (r *refWork) roundTime(rounds int) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r.round()
	t0 := threadCPUNow()
	for range rounds {
		r.round()
	}
	return (threadCPUNow() - t0) / time.Duration(rounds)
}

// yardstick samples the reference work between a run's operations and
// puts each operation's CPU time on the reference scale: the time times
// refRoundNominal over the median round time of the samples near it.
type yardstick struct {
	work    *refWork
	rounds  int             // timed rounds per sample
	samples []time.Duration // round time per sample, in run order
}

func newYardstick(work *refWork, rounds int) *yardstick {
	return &yardstick{work: work, rounds: rounds}
}

// sample times the reference work once, after the operations it stands for.
func (y *yardstick) sample() {
	y.samples = append(y.samples, y.work.roundTime(y.rounds))
}

// scaled puts d, measured next to sample i, on the reference scale.
func (y *yardstick) scaled(d time.Duration, i int) time.Duration {
	near := y.samples[max(i-refWindow, 0):min(i+refWindow+1, len(y.samples))]
	return time.Duration(float64(d) * float64(refRoundNominal) / float64(median(near)))
}

// scaledAll puts durs[i], measured next to sample i, on the reference scale.
func (y *yardstick) scaledAll(durs []time.Duration) []time.Duration {
	out := make([]time.Duration, len(durs))
	for i, d := range durs {
		out[i] = y.scaled(d, i)
	}
	return out
}
