// Graceful degradation of the chart-quality filter: when the classifier
// stage fails (a panic in scoring, or an injected fault standing in for a
// flaky model service), the filter falls back to rules-only scoring
// instead of taking the synthesis pipeline down. Fallbacks are counted so
// run stats can report how much of a build was degraded.

package deepeye

import (
	"sync/atomic"

	"nvbench/internal/fault"
)

// degraded counts classifier-stage failures absorbed by the rules-only
// fallback, per Filter.
type degradeCounter struct {
	n atomic.Int64
}

// PredictSafe scores a candidate with the classifier, degrading to the
// rule layer's verdict (keep: the rules already approved the chart) when
// the classifier stage fails. It reports the verdict and whether this
// call was degraded. Callers must have passed RuleCheck first.
func (fl *Filter) PredictSafe(f Features) (good, degradedCall bool) {
	err := fault.Safely("deepeye/classify", func() error {
		if err := fault.Inject(fault.SiteClassify); err != nil {
			return err
		}
		good = fl.Clf.Predict(f)
		return nil
	})
	if err != nil {
		fl.degraded.n.Add(1)
		return true, true
	}
	return good, false
}

// DegradedCount returns how many classifier calls fell back to rules-only
// scoring on this filter.
func (fl *Filter) DegradedCount() int64 { return fl.degraded.n.Load() }
