package analysis

import (
	"encoding/json"
	"fmt"
)

// Fact is a package-level, JSON-serializable datum an analyzer exports on
// one package so that the same analyzer, running later on an importer, can
// consume it — the cross-package channel that makes checks like faultsite
// (is this site string registered in internal/fault?) possible without
// whole-program analysis. Facts mirror x/tools' analysis facts but are
// package-granular only and must round-trip through encoding/json: the
// store keeps the encoded form, so every importer decodes its own copy and
// cannot alias the exporter's value. Concrete fact types implement the
// marker method AFact and are declared in the owning analyzer's FactTypes.
type Fact interface{ AFact() }

// factKey scopes a fact to the (analyzer, package) pair that produced it;
// analyzers never see each other's facts.
type factKey struct {
	analyzer string
	pkgPath  string
}

// factStore is the per-run fact table shared by every Pass. Run analyzes
// packages in dependency order, so a dependency's fact is set before any
// importer reads it.
type factStore struct {
	m map[factKey]json.RawMessage
}

func newFactStore() *factStore {
	return &factStore{m: make(map[factKey]json.RawMessage)}
}

func (s *factStore) set(analyzer, pkgPath string, data json.RawMessage) {
	s.m[factKey{analyzer, pkgPath}] = data
}

func (s *factStore) get(analyzer, pkgPath string) (json.RawMessage, bool) {
	data, ok := s.m[factKey{analyzer, pkgPath}]
	return data, ok
}

// ExportPackageFact records f as the current analyzer's fact for the
// package under analysis, replacing any previous export. The fact is
// serialized immediately so a non-encodable fact fails at the export site,
// not when an importer later decodes it.
func (p *Pass) ExportPackageFact(f Fact) error {
	if p.facts == nil {
		return fmt.Errorf("analysis: pass for %s has no fact store", p.Analyzer.Name)
	}
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("analysis: encoding %s fact for %s: %w", p.Analyzer.Name, p.Pkg.Path(), err)
	}
	p.facts.set(p.Analyzer.Name, p.Pkg.Path(), data)
	return nil
}

// ImportPackageFact decodes the current analyzer's fact for the package
// with the given import path into f, reporting whether one was available.
// Facts are only visible for packages that were analyzed earlier in the
// dependency order.
func (p *Pass) ImportPackageFact(path string, f Fact) bool {
	if p.facts == nil {
		return false
	}
	data, ok := p.facts.get(p.Analyzer.Name, path)
	if !ok {
		return false
	}
	return json.Unmarshal(data, f) == nil
}
