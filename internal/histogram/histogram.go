// Package histogram implements the statistics of paper Section 6.1:
// an attribute-value histogram combined with probability histograms,
// used to estimate PTQ selectivity, the number of cutoff pointers a
// query will chase (validated in Figure 11), and the table size a
// given cutoff threshold produces.
//
// "We estimate the selectivity by maintaining a probability histogram
// in addition to an attribute-value-based histogram. For example, a
// probability histogram might indicate that 5% of the possible values
// of attribute X have a probability of 20% or more."
//
// The experiments (fig3, fig11, fig12, the ablation) and
// examples/tuning build a histogram once with Build and then only read
// it, so a built histogram is safe for concurrent estimates.
package histogram

import (
	"fmt"

	"upidb/internal/tuple"
)

// NumBuckets is the probability-histogram resolution: bucket i covers
// confidences [i/NumBuckets, (i+1)/NumBuckets).
const NumBuckets = 50

// Histogram summarizes the (value, confidence) entries of one
// uncertain attribute. Entries are (tuple, alternative) pairs with
// confidence = existence × alternative probability, exactly the unit
// the UPI stores.
type Histogram struct {
	attr string

	// perValue maps each attribute value to its probability buckets.
	perValue map[string]*valueStats
	// totals across all values.
	totalEntries int64
	totalTuples  int64
	// totalBytes is the summed encoded payload size over all entries,
	// for table size estimates.
	totalBytes int64
}

// valueStats keeps separate probability buckets for first alternatives
// (which Algorithm 1 always leaves in the heap file) and the rest
// (cutoff-eligible). Folding them together would badly overestimate
// cutoff-pointer counts for values that are popular first choices.
type valueStats struct {
	first   [NumBuckets]int64
	rest    [NumBuckets]int64
	entries int64
}

func (vs *valueStats) add(conf float64, isFirst bool) {
	if isFirst {
		vs.first[bucketOf(conf)]++
	} else {
		vs.rest[bucketOf(conf)]++
	}
	vs.entries++
}

// bucketOf maps a confidence to its bucket index.
func bucketOf(conf float64) int {
	b := int(conf * NumBuckets)
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// Build constructs the histogram for one uncertain attribute from a
// batch of tuples (the statistics pass a DBA would run at load time).
func Build(attr string, tuples []*tuple.Tuple) (*Histogram, error) {
	h := &Histogram{attr: attr, perValue: make(map[string]*valueStats)}
	for _, t := range tuples {
		if !h.add(t) {
			return nil, fmt.Errorf("histogram: tuple %d lacks attribute %q", t.ID, attr)
		}
	}
	return h, nil
}

// add applies one tuple's contribution. It reports false — and leaves
// the histogram untouched — when the tuple lacks the attribute.
func (h *Histogram) add(t *tuple.Tuple) bool {
	dist, ok := t.Uncertain(h.attr)
	if !ok {
		return false
	}
	enc := int64(len(tuple.Encode(t)))
	h.totalTuples++
	for i, a := range dist {
		vs := h.perValue[a.Value]
		if vs == nil {
			vs = &valueStats{}
			h.perValue[a.Value] = vs
		}
		vs.add(t.Existence*a.Prob, i == 0)
		h.totalEntries++
		h.totalBytes += enc
	}
	return true
}

// Attr returns the attribute this histogram describes.
func (h *Histogram) Attr() string { return h.attr }

// TotalEntries returns the number of (tuple, alternative) entries.
func (h *Histogram) TotalEntries() int64 { return h.totalEntries }

// TotalTuples returns the number of tuples summarized.
func (h *Histogram) TotalTuples() int64 { return h.totalTuples }

// DistinctValues returns the number of distinct attribute values.
func (h *Histogram) DistinctValues() int { return len(h.perValue) }

// bucketsAbove estimates entries in buckets with confidence >= t, with
// linear interpolation inside the boundary bucket.
func bucketsAbove(buckets *[NumBuckets]int64, t float64) float64 {
	if t >= 1 {
		return 0
	}
	if t < 0 {
		t = 0
	}
	b := bucketOf(t)
	sum := 0.0
	for i := b + 1; i < NumBuckets; i++ {
		sum += float64(buckets[i])
	}
	// Fraction of the boundary bucket above t.
	lo := float64(b) / NumBuckets
	frac := 1 - (t-lo)*NumBuckets
	if frac < 0 {
		frac = 0
	}
	sum += float64(buckets[b]) * frac
	return sum
}

// entriesAbove estimates all entries (first and rest) of the value
// with confidence >= t.
func (vs *valueStats) entriesAbove(t float64) float64 {
	if t <= 0 {
		return float64(vs.entries)
	}
	return bucketsAbove(&vs.first, t) + bucketsAbove(&vs.rest, t)
}

// EstimateEntries estimates how many index entries for value have
// confidence >= qt (heap-file entries when qt >= C).
func (h *Histogram) EstimateEntries(value string, qt float64) float64 {
	vs := h.perValue[value]
	if vs == nil {
		return 0
	}
	return vs.entriesAbove(qt)
}

// EstimateCutoffPointers estimates the pointers a PTQ with threshold
// qt < cutoff retrieves from the cutoff index: entries with confidence
// in [qt, cutoff). This is the estimator Figure 11 validates.
func (h *Histogram) EstimateCutoffPointers(value string, qt, cutoff float64) float64 {
	if qt >= cutoff {
		return 0
	}
	vs := h.perValue[value]
	if vs == nil {
		return 0
	}
	n := bucketsAbove(&vs.rest, qt) - bucketsAbove(&vs.rest, cutoff)
	if n < 0 {
		n = 0
	}
	return n
}

// EstimateSelectivity estimates the fraction of *heap entries* a PTQ
// on value with threshold qt touches — the Selectivity term of the
// Section 6 cost models.
func (h *Histogram) EstimateSelectivity(value string, qt float64) float64 {
	if h.totalEntries == 0 {
		return 0
	}
	return h.EstimateEntries(value, qt) / float64(h.totalEntries)
}

// EstimateHeapEntriesTotal estimates the number of entries kept in the
// heap file for a given cutoff threshold: every first alternative
// (Algorithm 1 keeps them unconditionally) plus every non-first
// alternative with confidence >= C.
func (h *Histogram) EstimateHeapEntriesTotal(cutoff float64) float64 {
	total := float64(h.totalTuples) // exactly one first alternative per tuple
	for _, vs := range h.perValue {
		total += bucketsAbove(&vs.rest, cutoff)
	}
	return total
}

// EstimateTableBytes estimates the heap-file size for a cutoff
// threshold ("We also use the histogram to estimate the size of the
// table for a given cutoff threshold").
func (h *Histogram) EstimateTableBytes(cutoff float64) float64 {
	if h.totalEntries == 0 {
		return 0
	}
	return h.EstimateHeapEntriesTotal(cutoff) * (float64(h.totalBytes) / float64(h.totalEntries))
}
