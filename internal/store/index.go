// Secondary indexes: the store side of the VQL query engine. They are
// built in memory from the benchmark a handle last saved or loaded — its
// entries plus the manifest's content hashes in the same order — and are
// never written to disk: the whole benchmark is already in memory when a
// caller asks for them. A store saved by an older build may still carry an
// indexes/ directory; nothing reads, verifies or sweeps it.

package store

import (
	"errors"
	"sort"

	"nvbench/internal/bench"
)

// IndexFields are the entry fields with a secondary index, in name order.
var IndexFields = []string{"chart", "db", "hardness"}

// Index is one secondary index; it implements vql.Index.
type Index struct {
	field string
	keys  map[string][]string
}

// Field names the indexed entry field.
func (ix *Index) Field() string { return ix.field }

// Lookup returns the content hashes of the entries whose field equals key
// (the database name for the db index), sorted; nil for an unknown key.
// The returned slice is shared — do not mutate.
func (ix *Index) Lookup(key string) []string { return ix.keys[key] }

// buildIndexes builds every index of IndexFields over entries, whose
// content hashes are hashes in the same order.
func buildIndexes(entries []*bench.Entry, hashes []string) map[string]*Index {
	out := make(map[string]*Index, len(IndexFields))
	for _, f := range IndexFields {
		out[f] = &Index{field: f, keys: map[string][]string{}}
	}
	add := func(field, key, hash string) {
		ix := out[field]
		ix.keys[key] = append(ix.keys[key], hash)
	}
	for i, e := range entries {
		add("chart", e.Chart.String(), hashes[i])
		add("db", e.DB.Name, hashes[i])
		add("hardness", e.Hardness.String(), hashes[i])
	}
	for _, ix := range out {
		for _, postings := range ix.keys {
			sort.Strings(postings)
		}
	}
	return out
}

// LoadIndexes returns the secondary indexes of the benchmark this handle
// last saved or loaded, keyed by field name. The first call after that
// Save or Load builds them; later calls share the same set. Calling it
// before any Save or Load is an error.
func (s *Store) LoadIndexes() (map[string]*Index, error) {
	if s.indexed == nil {
		return nil, errors.New("store: load indexes: no benchmark saved or loaded on this handle")
	}
	if s.indexes == nil {
		s.indexes = buildIndexes(s.indexed.Entries, s.indexedManifest.EntryHashes())
	}
	return s.indexes, nil
}

// setIndexed records b, saved or loaded with manifest m, as the benchmark
// LoadIndexes serves.
func (s *Store) setIndexed(b *bench.Benchmark, m *Manifest) {
	s.indexed, s.indexedManifest, s.indexes = b, m, nil
}
