package bench

import (
	"context"
	"fmt"

	upidb "upidb"
	"upidb/internal/dataset"
)

// routingBatches is how many insert/delete batches (one fracture each)
// the routing experiment applies before measuring, so the planner and
// the heuristic both face a realistically fractured table.
const routingBatches = 6

// PlannerRouting compares the opt-in planner routing (WithPlanner: the
// cheapest plan costed from histograms of the table's live tuples)
// against the default fixed routing (primary → clustered UPI scan,
// secondary → tailored secondary access) on the paper's query mix over
// a fractured authors table. Modeled cold-cache runtimes, deterministic
// per scale/seed: on the modeled device the planner's choices pay.
func PlannerRouting(ctx context.Context, e *Env) (*Experiment, error) {
	d, err := e.DBLP()
	if err != nil {
		return nil, err
	}
	db, err := upidb.Create("")
	if err != nil {
		return nil, err
	}
	tab, err := db.BulkLoadTable("authors", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, d.Authors,
		upidb.WithCutoff(fig9QT))
	if err != nil {
		return nil, err
	}
	w := newBatchWorkload(e.cfg.Seed+600, d.Authors)
	for b := 0; b < routingBatches; b++ {
		deletes, inserts := w.next()
		for _, t := range deletes {
			if err := tab.Delete(t.ID); err != nil {
				return nil, err
			}
		}
		for _, t := range inserts {
			if err := tab.Insert(t); err != nil {
				return nil, err
			}
		}
		if err := tab.Flush(); err != nil {
			return nil, err
		}
	}
	// Nothing maintains statistics: cost from the tuples now live, not
	// from the ones the bulk load saw.
	if err := tab.BuildStats(w.live); err != nil {
		return nil, err
	}

	exp := &Experiment{
		ID:      "planner-routing",
		Title:   fmt.Sprintf("Opt-in planner vs default routing (%d fractures)", tab.NumFractures()),
		XLabel:  "query",
		Columns: []string{"Planner [s]", "Heuristic [s]", "Results"},
		Notes:   "Planner runs WithPlanner over BuildStats(live tuples); Heuristic is the default Run's fixed routing",
	}
	queries := []struct {
		label string
		q     upidb.Query
	}{
		{"Q1 Inst=MIT qt=0.3", upidb.PTQ("", dataset.MITInstitution, 0.3)},
		{fmt.Sprintf("Q1 Inst=MIT qt=%.2f", fig9QT/2), upidb.PTQ("", dataset.MITInstitution, fig9QT/2)},
		{"Q3 Country=Japan qt=0.3", upidb.PTQ(dataset.AttrCountry, dataset.JapanCountry, 0.3)},
	}
	for _, qc := range queries {
		if err := tab.DropCaches(); err != nil {
			return nil, err
		}
		planned, err := tab.Run(ctx, qc.q.WithStats().WithPlanner())
		if err != nil {
			return nil, err
		}
		// Handles execute on first consumption: drain this one before
		// the caches are dropped for the next.
		if err := planned.Err(); err != nil {
			return nil, err
		}
		if err := tab.DropCaches(); err != nil {
			return nil, err
		}
		heur, err := tab.Run(ctx, qc.q.WithStats())
		if err != nil {
			return nil, err
		}
		if planned.Len() != heur.Len() {
			return nil, fmt.Errorf("bench: %s: planner %d results vs heuristic %d",
				qc.label, planned.Len(), heur.Len())
		}
		exp.Rows = append(exp.Rows, Row{
			Label: fmt.Sprintf("%s [%s]", qc.label, planned.Info().Plan),
			Values: []float64{
				seconds(planned.Info().ModeledTime),
				seconds(heur.Info().ModeledTime),
				float64(planned.Len()),
			},
		})
	}
	return exp, nil
}
