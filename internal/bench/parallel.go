package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"upidb/internal/dataset"
	"upidb/internal/fracture"
	"upidb/internal/sim"
	"upidb/internal/upi"
)

// parallelBatches is how many insert batches (one fracture each) the
// parallel experiment accumulates before measuring, so the fan-out has
// enough partitions to spread across workers.
const parallelBatches = 12

// parallelRepeats is how many times the measured PTQ is repeated per
// parallelism level, to make the wall-clock column readable.
const parallelRepeats = 8

// buildFracturedAuthors loads the author table and applies insert
// batches, flushing after each, leaving parallelBatches fractures.
func buildFracturedAuthors(e *Env) (*fracture.Store, *sim.Disk, error) {
	d, err := e.DBLP()
	if err != nil {
		return nil, nil, err
	}
	disk, fs := newDisk()
	store, err := fracture.BulkLoad(fs, "author", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, fracture.Config{UPI: upi.Options{Cutoff: fig9QT},
			Parallelism: e.cfg.Parallelism}, d.Authors)
	if err != nil {
		return nil, nil, err
	}
	w := newBatchWorkload(e.cfg.Seed+500, d.Authors)
	for b := 0; b < parallelBatches; b++ {
		deletes, inserts := w.next()
		for _, t := range deletes {
			store.Delete(t.ID)
		}
		for _, t := range inserts {
			if err := store.Insert(t); err != nil {
				return nil, nil, err
			}
		}
		if err := store.Flush(); err != nil {
			return nil, nil, err
		}
	}
	return store, disk, nil
}

// ParallelPTQ measures the same PTQ (Q1 at QT=0.1) over a heavily
// fractured table at increasing fan-out widths. The store has one
// executor, the k-way merged cursor stream, and store.Query drains it;
// parallelism is how many partition cursors its first pull opens
// concurrently, and every later pull is serial and demand-driven. The
// modeled cost is identical at every width — each partition's I/O is
// recorded on its own tape and replayed as one batch — so only the
// wall-clock column, which depends on the host machine, can move.
func ParallelPTQ(ctx context.Context, e *Env) (*Experiment, error) {
	store, disk, err := buildFracturedAuthors(e)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		ID:      "parallel-ptq",
		Title:   fmt.Sprintf("Parallel PTQ over %d partitions (Q1 at QT=%.1f)", store.NumFractures()+1, fig9QT),
		XLabel:  "parallelism",
		Columns: []string{"Wall [ms/query]", "Modeled [s/query]", "Results"},
		Notes:   "one executor: Query drains the cursor stream, and parallelism is the width of its first pull only; modeled cost is parallelism-invariant by construction; wall-clock is host-dependent",
	}

	widths := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		widths = append(widths, p)
	}
	for _, par := range widths {
		store.SetParallelism(par)
		var (
			modeled time.Duration
			results int
			wall    time.Duration
		)
		for r := 0; r < parallelRepeats; r++ {
			if err := store.DropCaches(); err != nil {
				return nil, err
			}
			sp := sim.StartSpan(disk)
			start := time.Now()
			rs, _, err := store.Query(ctx, dataset.MITInstitution, fig9QT)
			if err != nil {
				return nil, err
			}
			wall += time.Since(start)
			modeled += sp.End().Elapsed
			results = len(rs)
		}
		exp.Rows = append(exp.Rows, Row{
			X: float64(par),
			Values: []float64{
				float64(wall.Microseconds()) / 1000 / parallelRepeats,
				seconds(modeled) / parallelRepeats,
				float64(results),
			},
		})
	}
	return exp, nil
}
