package bench

import (
	"context"
	"fmt"
	"math/rand"

	"upidb/internal/costmodel"
	"upidb/internal/dataset"
	"upidb/internal/fracture"
	"upidb/internal/heapfile"
	"upidb/internal/histogram"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// batchWorkload produces the paper's insert batches: each batch
// deletes 1% of the live tuples at random and inserts new tuples equal
// to 10% of the original table size ("we randomly delete 1% of the
// tuples from the DBLP Author table and randomly insert new tuples
// equal to 10% of the existing tuples").
type batchWorkload struct {
	rng    *rand.Rand
	live   []*tuple.Tuple
	nextID uint64
	// template tuples to clone new inserts from (fresh IDs, same
	// distribution shapes).
	templates []*tuple.Tuple
	batchIns  int
	batchDel  int
}

func newBatchWorkload(seed int64, base []*tuple.Tuple) *batchWorkload {
	w := &batchWorkload{
		rng:       rand.New(rand.NewSource(seed)),
		live:      append([]*tuple.Tuple(nil), base...),
		templates: base,
		batchIns:  len(base) / 10,
		batchDel:  len(base) / 100,
	}
	for _, t := range base {
		if t.ID >= w.nextID {
			w.nextID = t.ID + 1
		}
	}
	return w
}

// next returns the deletions and insertions of the next batch.
func (w *batchWorkload) next() (deletes []*tuple.Tuple, inserts []*tuple.Tuple) {
	for i := 0; i < w.batchDel && len(w.live) > 0; i++ {
		j := w.rng.Intn(len(w.live))
		deletes = append(deletes, w.live[j])
		w.live[j] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
	}
	for i := 0; i < w.batchIns; i++ {
		tmpl := w.templates[w.rng.Intn(len(w.templates))]
		clone := *tmpl
		clone.ID = w.nextID
		w.nextID++
		inserts = append(inserts, &clone)
		w.live = append(w.live, &clone)
	}
	return deletes, inserts
}

// Table7Maintenance regenerates Table 7: the cost of one insert batch
// (10%) and one delete batch (1%) on an unclustered table (PII), a
// plain UPI and a Fractured UPI.
func Table7Maintenance(ctx context.Context, e *Env) (*Experiment, error) {
	d, err := e.DBLP()
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		ID:      "table7",
		Title:   "Maintenance Cost (insert 10%, delete 1%)",
		XLabel:  "approach",
		Columns: []string{"Insert [s]", "Delete [s]"},
		Notes:   "modeled seconds; deletes and inserts in random order",
	}
	w := newBatchWorkload(e.cfg.Seed+100, d.Authors)
	deletes, inserts := w.next()

	// Unclustered: "an append-only table without primary indexes"
	// (Section 4.1) — a bare heap file. Inserts append sequentially;
	// deletes tombstone random pages.
	{
		disk, fs := newDisk()
		hp, err := storage.NewPager(fs.Create("author.heap"), storage.DefaultPageSize)
		if err != nil {
			return nil, err
		}
		heap, err := heapfile.Create(hp)
		if err != nil {
			return nil, err
		}
		rows := make(map[uint64]heapfile.RowID, len(d.Authors))
		for _, t := range d.Authors {
			rid, err := heap.Append(tuple.Encode(t))
			if err != nil {
				return nil, err
			}
			rows[t.ID] = rid
		}
		if err := hp.Flush(); err != nil {
			return nil, err
		}
		insDur, err := coldRun(disk, hp.DropCache, func() error {
			for _, t := range inserts {
				rid, err := heap.Append(tuple.Encode(t))
				if err != nil {
					return err
				}
				rows[t.ID] = rid
			}
			return hp.Flush()
		})
		if err != nil {
			return nil, err
		}
		delDur, err := coldRun(disk, hp.DropCache, func() error {
			for _, t := range deletes {
				if _, err := heap.Delete(rows[t.ID]); err != nil {
					return err
				}
			}
			return hp.Flush()
		})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{Label: "Unclustered", Values: []float64{seconds(insDur), seconds(delDur)}})
	}

	// Plain UPI, maintained in place.
	{
		upiTab, disk, err := buildAuthorUPI(d.Authors, defaultCutoff)
		if err != nil {
			return nil, err
		}
		insDur, err := coldRun(disk, upiTab.DropCaches, func() error {
			for _, t := range inserts {
				if err := upiTab.Insert(t); err != nil {
					return err
				}
			}
			return upiTab.Flush()
		})
		if err != nil {
			return nil, err
		}
		delDur, err := coldRun(disk, upiTab.DropCaches, func() error {
			for _, t := range deletes {
				if err := upiTab.Delete(t); err != nil {
					return err
				}
			}
			return upiTab.Flush()
		})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{Label: "UPI", Values: []float64{seconds(insDur), seconds(delDur)}})
	}

	// Fractured UPI: buffer in RAM, one sequential flush per batch.
	{
		disk, fs := newDisk()
		store, err := fracture.BulkLoad(fs, "author", dataset.AttrInstitution,
			[]string{dataset.AttrCountry}, fracture.Config{UPI: upi.Options{Cutoff: defaultCutoff}}, d.Authors)
		if err != nil {
			return nil, err
		}
		insDur, err := coldRun(disk, store.DropCaches, func() error {
			for _, t := range inserts {
				if err := store.Insert(t); err != nil {
					return err
				}
			}
			if err := store.Flush(); err != nil {
				return err
			}
			return store.FlushPages()
		})
		if err != nil {
			return nil, err
		}
		delDur, err := coldRun(disk, store.DropCaches, func() error {
			for _, t := range deletes {
				store.Delete(t.ID)
			}
			if err := store.Flush(); err != nil {
				return err
			}
			return store.FlushPages()
		})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{Label: "Fractured UPI", Values: []float64{seconds(insDur), seconds(delDur)}})
	}
	return exp, nil
}

// fig9Query is the query measured between insert batches (Q1 with
// C = QT = 0.1, as in Figure 9).
const fig9QT = 0.1

// Fig9Deterioration regenerates Figure 9: Query 1 runtime after each
// of 10 insert batches on the three approaches.
func Fig9Deterioration(ctx context.Context, e *Env) (*Experiment, error) {
	d, err := e.DBLP()
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		ID:      "fig9",
		Title:   "Q1 (C=QT=0.1) Deterioration over insert batches",
		XLabel:  "batch",
		Columns: []string{"Unclustered heap", "UPI", "Fractured UPI"},
		Notes:   "modeled seconds; batch = +10% inserts, -1% deletes",
	}

	piiTab, piiDisk, err := buildAuthorPII(d.Authors)
	if err != nil {
		return nil, err
	}
	upiTab, upiDisk, err := buildAuthorUPI(d.Authors, fig9QT)
	if err != nil {
		return nil, err
	}
	fracDisk, fracFS := newDisk()
	store, err := fracture.BulkLoad(fracFS, "author", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, fracture.Config{UPI: upi.Options{Cutoff: fig9QT}}, d.Authors)
	if err != nil {
		return nil, err
	}

	measure := func() (Row, error) {
		row := Row{}
		piiDur, err := coldRun(piiDisk, piiTab.DropCaches, func() error {
			_, qerr := piiTab.Query(ctx, dataset.AttrInstitution, dataset.MITInstitution, fig9QT)
			return qerr
		})
		if err != nil {
			return row, err
		}
		upiDur, err := coldRun(upiDisk, upiTab.DropCaches, func() error {
			_, _, qerr := upiTab.Query(ctx, dataset.MITInstitution, fig9QT)
			return qerr
		})
		if err != nil {
			return row, err
		}
		fracDur, err := coldRun(fracDisk, store.DropCaches, func() error {
			_, _, qerr := store.Query(ctx, dataset.MITInstitution, fig9QT)
			return qerr
		})
		if err != nil {
			return row, err
		}
		row.Values = []float64{seconds(piiDur), seconds(upiDur), seconds(fracDur)}
		return row, nil
	}

	row, err := measure()
	if err != nil {
		return nil, err
	}
	row.X = 0
	exp.Rows = append(exp.Rows, row)

	w := newBatchWorkload(e.cfg.Seed+200, d.Authors)
	for batch := 1; batch <= 10; batch++ {
		deletes, inserts := w.next()
		for _, t := range deletes {
			if err := piiTab.Delete(t); err != nil {
				return nil, err
			}
			if err := upiTab.Delete(t); err != nil {
				return nil, err
			}
			store.Delete(t.ID)
		}
		for _, t := range inserts {
			if err := piiTab.Insert(t); err != nil {
				return nil, err
			}
			if err := upiTab.Insert(t); err != nil {
				return nil, err
			}
			if err := store.Insert(t); err != nil {
				return nil, err
			}
		}
		if err := store.Flush(); err != nil { // one fracture per batch
			return nil, err
		}
		row, err := measure()
		if err != nil {
			return nil, err
		}
		row.X = float64(batch)
		exp.Rows = append(exp.Rows, row)
	}
	return exp, nil
}

// Fig10FracturedModel regenerates Figure 10: the Fractured UPI's real
// query runtime over 30 insert batches with a merge after every 10,
// against the Section 6.2 cost-model estimate.
func Fig10FracturedModel(ctx context.Context, e *Env) (*Experiment, error) {
	d, err := e.DBLP()
	if err != nil {
		return nil, err
	}
	hist, err := histogram.Build(dataset.AttrInstitution, d.Authors)
	if err != nil {
		return nil, err
	}
	disk, fs := newDisk()
	store, err := fracture.BulkLoad(fs, "author", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, fracture.Config{UPI: upi.Options{Cutoff: fig9QT}}, d.Authors)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		ID:      "fig10",
		Title:   "Fractured UPI Runtime, Real vs Estimated (merge every 10 batches)",
		XLabel:  "batch",
		Columns: []string{"Real", "Estimated"},
		Notes:   "modeled seconds; Q1 at QT=0.1",
	}
	selEst := hist.EstimateSelectivity(dataset.MITInstitution, fig9QT)

	measure := func(batch int) error {
		real, err := coldRun(disk, store.DropCaches, func() error {
			_, _, qerr := store.Query(ctx, dataset.MITInstitution, fig9QT)
			return qerr
		})
		if err != nil {
			return err
		}
		params := costmodel.Params{
			Disk:       sim.DefaultParams(),
			Height:     store.Main().Heap().Height(),
			TableBytes: store.SizeBytes(),
			Fractures:  store.NumFractures() + 1, // main counts as a partition too
		}
		est := params.CostFractured(selEst)
		exp.Rows = append(exp.Rows, Row{X: float64(batch), Values: []float64{seconds(real), seconds(est)}})
		return nil
	}
	if err := measure(0); err != nil {
		return nil, err
	}
	w := newBatchWorkload(e.cfg.Seed+300, d.Authors)
	for batch := 1; batch <= 30; batch++ {
		deletes, inserts := w.next()
		for _, t := range deletes {
			store.Delete(t.ID)
		}
		for _, t := range inserts {
			if err := store.Insert(t); err != nil {
				return nil, err
			}
		}
		if err := store.Flush(); err != nil {
			return nil, err
		}
		if batch%10 == 0 {
			if err := store.Merge(); err != nil {
				return nil, err
			}
		}
		if err := measure(batch); err != nil {
			return nil, err
		}
	}
	return exp, nil
}

// Table8Merging regenerates Table 8: the cost and resulting database
// size of three successive merges, each after 10 insert batches.
func Table8Merging(ctx context.Context, e *Env) (*Experiment, error) {
	d, err := e.DBLP()
	if err != nil {
		return nil, err
	}
	disk, fs := newDisk()
	store, err := fracture.BulkLoad(fs, "author", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, fracture.Config{UPI: upi.Options{Cutoff: defaultCutoff}}, d.Authors)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		ID:      "table8",
		Title:   "Merging Cost",
		XLabel:  "#",
		Columns: []string{"Time [s]", "DB size [MB]", "Estimated [s]"},
		Notes:   "merge after every 10 insert batches; estimate = Stable x (Tread + Twrite)",
	}
	w := newBatchWorkload(e.cfg.Seed+400, d.Authors)
	for m := 1; m <= 3; m++ {
		for b := 0; b < 10; b++ {
			deletes, inserts := w.next()
			for _, t := range deletes {
				store.Delete(t.ID)
			}
			for _, t := range inserts {
				if err := store.Insert(t); err != nil {
					return nil, err
				}
			}
			if err := store.Flush(); err != nil {
				return nil, err
			}
		}
		if err := store.FlushPages(); err != nil {
			return nil, err
		}
		params := costmodel.Params{Disk: sim.DefaultParams(), TableBytes: store.SizeBytes()}
		est := params.CostMerge()
		dur, err := coldRun(disk, store.DropCaches, store.Merge)
		if err != nil {
			return nil, err
		}
		sizeMB := float64(store.SizeBytes()) / (1 << 20)
		exp.Rows = append(exp.Rows, Row{
			Label:  fmt.Sprintf("%d", m),
			Values: []float64{seconds(dur), sizeMB, seconds(est)},
		})
	}
	return exp, nil
}
