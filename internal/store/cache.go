// The incremental-build cache: a disk-backed bench.PairCache keyed by a
// hash of everything a pair's outcome depends on — the pair's NL, its
// canonical SQL tree, the content of its database, and the synthesizer+
// editor configuration fingerprint. A warm rebuild over an unchanged
// corpus therefore does zero synthesis; change any input (one pair's text,
// one table's rows, one config knob) and exactly the affected pairs miss.

package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"nvbench/internal/ast"
	"nvbench/internal/bench"
	"nvbench/internal/dataset"
	"nvbench/internal/spider"
)

// Fingerprint hashes the outcome-relevant configuration of a build: the
// synthesizer knobs (bin count, candidate bound, aggregate menu, whether
// the DeepEye filter is on), the NL editor knobs (variant count, smoothing,
// seed) and the per-pair truncation bound. Worker count, retry budget and
// backoff are deliberately excluded — they change how a build runs, not
// what it produces.
func Fingerprint(opts bench.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "store-v%d", FormatVersion)
	if opts.Synth != nil {
		fmt.Fprintf(h, "|synth:bins=%d,max=%d,filter=%t,aggs=", opts.Synth.NumBins, opts.Synth.MaxCandidates, opts.Synth.Filter != nil)
		for _, a := range opts.Synth.Aggregates {
			fmt.Fprintf(h, "%s ", a)
		}
	}
	if opts.Edit != nil {
		fmt.Fprintf(h, "|edit:n=%d,smooth=%t,seed=%d", opts.Edit.NumVariants, opts.Edit.Smooth, opts.Edit.Seed)
	}
	fmt.Fprintf(h, "|maxvis=%d", opts.MaxVisPerPair)
	return hex.EncodeToString(h.Sum(nil))
}

// PairCache is the store's bench.PairCache implementation. Records
// partition into the shard routed by the cache key's first byte, so cache
// damage shares the shard blast radius. It is safe for concurrent use by
// the build worker pool.
type PairCache struct {
	store       *Store
	fingerprint string

	mu      sync.Mutex
	dbByPtr map[*dataset.Database]string // memoized database content hashes
}

// PairCache returns the incremental cache view of the store under one
// configuration fingerprint (see Fingerprint).
func (s *Store) PairCache(fingerprint string) *PairCache {
	return &PairCache{store: s, fingerprint: fingerprint, dbByPtr: map[*dataset.Database]string{}}
}

// key derives the cache address of one pair.
func (c *PairCache) key(p *spider.Pair) (string, error) {
	dbh, err := c.dbHash(p)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|%s", c.fingerprint, dbh, p.NL, p.Query.String())
	return hex.EncodeToString(h.Sum(nil)), nil
}

// dbHash memoizes the content hash of a pair's database by pointer —
// databases are shared across a corpus's pairs, so each payload is
// serialized once per build, not once per pair.
func (c *PairCache) dbHash(p *spider.Pair) (string, error) {
	c.mu.Lock()
	h, ok := c.dbByPtr[p.DB]
	c.mu.Unlock()
	if ok {
		return h, nil
	}
	data, err := encodeDatabase(p.DB)
	if err != nil {
		return "", err
	}
	h = hashBytes(data)
	c.mu.Lock()
	c.dbByPtr[p.DB] = h
	c.mu.Unlock()
	return h, nil
}

// outcomeRecord is the on-disk shape of one cached pair outcome.
type outcomeRecord struct {
	Kept       []cachedVisRecord `json:"kept,omitempty"`
	Rejections map[string]int    `json:"rejections,omitempty"`
}

type cachedVisRecord struct {
	Vis      string         `json:"vis"`
	Hardness string         `json:"hardness"`
	Manual   bool           `json:"manual,omitempty"`
	NLs      []string       `json:"nls"`
	Edit     []editOpRecord `json:"edit,omitempty"`
}

// cacheBox returns the box one cache key's record lives in: the shard the
// key's first byte routes to.
func (c *PairCache) cacheBox(key string) box {
	return c.store.shardBox(shardIndex(key, c.store.shardCount))
}

// Get returns the cached outcome for a pair, or false on any miss —
// including an unreadable, corrupt or undecodable artifact. Cache
// degradation costs a re-synthesis, never a failed build.
func (c *PairCache) Get(p *spider.Pair) (*bench.PairOutcome, bool) {
	key, err := c.key(p)
	if err != nil {
		return nil, false
	}
	data, err := c.cacheBox(key).readArtifact(cacheDir + "/" + key + ".json")
	if err != nil {
		return nil, false
	}
	payload, err := verifySelfHashed(data)
	if err != nil {
		return nil, false
	}
	var rec outcomeRecord
	if err := decodeStrict(payload, &rec); err != nil {
		return nil, false
	}
	out := &bench.PairOutcome{Rejections: rec.Rejections}
	if out.Rejections == nil {
		out.Rejections = map[string]int{}
	}
	for _, vr := range rec.Kept {
		cv, err := vr.toCachedVis()
		if err != nil {
			return nil, false
		}
		out.Kept = append(out.Kept, cv)
	}
	return out, true
}

// Put stores a fresh outcome under the pair's key. The payload is
// self-hashed (first line) so Get and Verify can detect corruption.
func (c *PairCache) Put(p *spider.Pair, out *bench.PairOutcome) error {
	key, err := c.key(p)
	if err != nil {
		return err
	}
	rec := outcomeRecord{Rejections: out.Rejections}
	for _, cv := range out.Kept {
		vr := cachedVisRecord{
			Vis:      cv.Vis.String(),
			Hardness: cv.Hardness.String(),
			Manual:   cv.Manual,
			NLs:      cv.NLs,
		}
		for _, op := range cv.Edit.Ops {
			vr.Edit = append(vr.Edit, encodeEditOp(op))
		}
		rec.Kept = append(rec.Kept, vr)
	}
	payload, err := canonicalJSON(rec)
	if err != nil {
		return err
	}
	return c.cacheBox(key).writeArtifact(cacheDir+"/"+key+".json", selfHashed(payload))
}

func (vr cachedVisRecord) toCachedVis() (bench.CachedVis, error) {
	vis, err := ast.ParseString(vr.Vis)
	if err != nil {
		return bench.CachedVis{}, err
	}
	hardness, err := parseHardness(vr.Hardness)
	if err != nil {
		return bench.CachedVis{}, err
	}
	cv := bench.CachedVis{Vis: vis, Hardness: hardness, Manual: vr.Manual, NLs: vr.NLs}
	for _, opRec := range vr.Edit {
		op, err := decodeEditOp(opRec)
		if err != nil {
			return bench.CachedVis{}, err
		}
		cv.Edit.Ops = append(cv.Edit.Ops, op)
	}
	return cv, nil
}

// selfHashed prefixes a payload with the hex hash of its bytes and a
// newline — the framing of cache artifacts, whose filenames address their
// inputs rather than their content.
func selfHashed(payload []byte) []byte {
	return append([]byte(hashBytes(payload)+"\n"), payload...)
}

// verifySelfHashed splits and checks the framing produced by selfHashed.
func verifySelfHashed(data []byte) ([]byte, error) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return nil, fmt.Errorf("missing self-hash header")
	}
	want, payload := string(data[:i]), data[i+1:]
	if got := hashBytes(payload); got != want {
		return nil, fmt.Errorf("payload hash %s does not match recorded %s", got, want)
	}
	return payload, nil
}
