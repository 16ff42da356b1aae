package cupi

import (
	"upidb/internal/prob"
	"upidb/internal/rtree"
)

// pcrProbs are the probability levels whose quantile radii are
// precomputed into each leaf entry's Aux payload.
var pcrProbs = [rtree.AuxSize]float64{0.3, 0.5, 0.7, 0.9}

// pcrAux computes the Aux payload for an object: quantile radii at
// pcrProbs.
func pcrAux(g prob.ConstrainedGaussian) [rtree.AuxSize]float64 {
	var aux [rtree.AuxSize]float64
	for i, p := range pcrProbs {
		aux[i] = g.QuantileRadius(p)
	}
	return aux
}

// pcrDecision classifies a candidate against a circular query without
// accessing the object.
type pcrDecision int

// PCR pruning outcomes.
const (
	pcrUndecided pcrDecision = iota
	pcrAccept
	pcrReject
)

// checkPCR applies the accept/reject rules. center is the uncertainty
// region's center (the MBR center), aux its quantile radii.
//
//   - Accept: some disk(center, r_p) with p >= threshold lies fully
//     inside the query circle, so P(inside) >= p >= threshold.
//   - Reject: the query circle misses disk(center, r_p) entirely, so
//     P(inside) <= 1-p; reject when 1-p < threshold.
func checkPCR(center prob.Point, aux [rtree.AuxSize]float64, q prob.Point, radius, threshold float64) pcrDecision {
	d := center.Dist(q)
	for i := len(pcrProbs) - 1; i >= 0; i-- {
		p, rp := pcrProbs[i], aux[i]
		if p >= threshold && d+rp <= radius {
			return pcrAccept
		}
	}
	for i := range pcrProbs {
		p, rp := pcrProbs[i], aux[i]
		if d >= radius+rp && 1-p < threshold {
			return pcrReject
		}
	}
	return pcrUndecided
}
