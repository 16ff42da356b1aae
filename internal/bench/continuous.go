package bench

import (
	"context"

	"upidb/internal/cupi"
	"upidb/internal/prob"
)

// fig7QueryPoint places the paper's Query 4 center away from downtown
// so the query stays selective relative to the metro extent (the paper
// queries a fixed point and sweeps the radius).
func fig7QueryPoint(extent prob.Rect) prob.Point {
	return prob.Point{
		X: extent.MaxX * 0.5,
		Y: extent.MaxY * 0.38,
	}
}

// Fig7Query4 regenerates Figure 7: Query 4 (location range PTQ)
// runtime against the radius, continuous UPI versus secondary U-Tree,
// at QT = 50%.
func Fig7Query4(ctx context.Context, e *Env) (*Experiment, error) {
	c, err := e.Cartel()
	if err != nil {
		return nil, err
	}
	cuDisk, cuFS := newDisk()
	cu, err := cupi.BulkBuild(cuFS, "car", c.Observations, cupi.Options{})
	if err != nil {
		return nil, err
	}
	utDisk, utFS := newDisk()
	ut, err := cupi.BulkBuild(utFS, "car", c.Observations, cupi.Options{Unclustered: true})
	if err != nil {
		return nil, err
	}
	q := fig7QueryPoint(c.Extent)
	exp := &Experiment{
		ID:      "fig7",
		Title:   "Query 4 Runtime (Cartel location range, QT=0.5)",
		XLabel:  "Radius [m]",
		Columns: []string{"Continuous UPI", "U-Tree"},
		Notes:   "modeled seconds",
	}
	for radius := 100.0; radius <= 1000.0; radius += 100 {
		radius := radius
		cuDur, err := coldRun(cuDisk, cu.DropCaches, func() error {
			_, _, qerr := cu.QueryCircle(ctx, q, radius, 0.5)
			return qerr
		})
		if err != nil {
			return nil, err
		}
		utDur, err := coldRun(utDisk, ut.DropCaches, func() error {
			_, _, qerr := ut.QueryCircle(ctx, q, radius, 0.5)
			return qerr
		})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{X: radius, Values: []float64{seconds(cuDur), seconds(utDur)}})
	}
	return exp, nil
}

// Fig8Query5 regenerates Figure 8: Query 5 (road-segment PTQ via the
// secondary index) against QT, comparing the index into the clustered
// continuous-UPI heap with the same index into an unclustered heap.
func Fig8Query5(ctx context.Context, e *Env) (*Experiment, error) {
	c, err := e.Cartel()
	if err != nil {
		return nil, err
	}
	cuDisk, cuFS := newDisk()
	cu, err := cupi.BulkBuild(cuFS, "car", c.Observations, cupi.Options{})
	if err != nil {
		return nil, err
	}
	utDisk, utFS := newDisk()
	ut, err := cupi.BulkBuild(utFS, "car", c.Observations, cupi.Options{Unclustered: true})
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int)
	for _, o := range c.Observations {
		counts[o.Segment.First().Value]++
	}
	seg, bestN := "", 0
	for s, n := range counts {
		if n > bestN {
			seg, bestN = s, n
		}
	}
	exp := &Experiment{
		ID:      "fig8",
		Title:   "Query 5 Runtime (Cartel WHERE Segment=" + seg + ")",
		XLabel:  "QT",
		Columns: []string{"PII on Continuous UPI", "PII on unclustered heap"},
		Notes:   "modeled seconds",
	}
	for qt := 0.1; qt <= 0.81; qt += 0.1 {
		qt := qt
		cuDur, err := coldRun(cuDisk, cu.DropCaches, func() error {
			_, _, qerr := cu.QuerySegment(ctx, seg, qt)
			return qerr
		})
		if err != nil {
			return nil, err
		}
		utDur, err := coldRun(utDisk, ut.DropCaches, func() error {
			_, _, qerr := ut.QuerySegment(ctx, seg, qt)
			return qerr
		})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{X: qt, Values: []float64{seconds(cuDur), seconds(utDur)}})
	}
	return exp, nil
}
