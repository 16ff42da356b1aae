package bench

import (
	"context"
	"fmt"
	"time"

	"upidb/internal/fracture"
	"upidb/internal/prob"
	"upidb/internal/sim"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// streamingTopK is the k of the streaming experiment's top-k query.
const streamingTopK = 10

// streamingFractures is the partition fan-out of the streaming
// experiment (plus the bulk-loaded main).
const streamingFractures = 8

// streamingCutoff is the cutoff threshold C of the experiment's table.
const streamingCutoff = 0.15

// buildStreamingStore builds the skew the streaming experiment
// measures: a main partition full of high-confidence matches for one
// hot value, and fractures whose matches are mostly *below* the cutoff
// — so a full drain must chase every fracture's cutoff pointers (one
// modeled seek each) while a top-k terminates inside the main
// partition's heap prefix.
func buildStreamingStore(e *Env) (*fracture.Store, *sim.Disk, error) {
	scale := e.cfg.Scale
	nMain := int(8000 * scale)
	if nMain < 400 {
		nMain = 400
	}
	nCut := int(2000 * scale)
	if nCut < 400 {
		nCut = 400
	}

	hot := func(id uint64, conf float64) (*tuple.Tuple, error) {
		x, err := prob.NewDiscrete([]prob.Alternative{{Value: "hot", Prob: conf}})
		if err != nil {
			return nil, err
		}
		return &tuple.Tuple{ID: id, Existence: 1, Unc: []tuple.UncField{{Name: "X", Dist: x}}}, nil
	}
	coldPayload := make([]byte, 256)
	coldHot := func(id uint64, j int) (*tuple.Tuple, error) {
		// "hot" at confidence 0.1 — below the cutoff, so the entry
		// lives in the fracture's cutoff index and costs a pointer
		// chase to retrieve. Distinct primary values and a realistic
		// row width spread the chase targets across heap pages.
		x, err := prob.NewDiscrete([]prob.Alternative{
			{Value: fmt.Sprintf("c%04d", j), Prob: 0.8}, {Value: "hot", Prob: 0.1},
		})
		if err != nil {
			return nil, err
		}
		return &tuple.Tuple{ID: id, Existence: 1,
			Unc:     []tuple.UncField{{Name: "X", Dist: x}},
			Payload: coldPayload,
		}, nil
	}

	disk, fs := newDisk()
	id := uint64(1)
	base := make([]*tuple.Tuple, 0, nMain)
	for i := 0; i < nMain; i++ {
		t, err := hot(id, 0.5+0.499*float64(i)/float64(nMain))
		if err != nil {
			return nil, nil, err
		}
		base = append(base, t)
		id++
	}
	store, err := fracture.BulkLoad(fs, "stream", "X", nil,
		fracture.Config{UPI: upi.Options{Cutoff: streamingCutoff}}, base)
	if err != nil {
		return nil, nil, err
	}
	// Each fracture holds fewer than k heap matches, so no fracture can
	// fill a top-k from its heap prefix alone: only the cross-partition
	// merge, which fills k from the main partition, avoids the
	// fractures' cutoff chases.
	hotPerFracture := streamingTopK / 2
	for f := 0; f < streamingFractures; f++ {
		for j := 0; j < hotPerFracture; j++ {
			t, err := hot(id, 0.2+0.01*float64(f*hotPerFracture+j)/float64(streamingFractures))
			if err != nil {
				return nil, nil, err
			}
			if err := store.Insert(t); err != nil {
				return nil, nil, err
			}
			id++
		}
		for j := 0; j < nCut; j++ {
			t, err := coldHot(id, j)
			if err != nil {
				return nil, nil, err
			}
			if err := store.Insert(t); err != nil {
				return nil, nil, err
			}
			id++
		}
		if err := store.Flush(); err != nil {
			return nil, nil, err
		}
	}
	return store, disk, nil
}

// StreamingLatency measures what pulling only what is needed buys over
// draining the unbounded query, in modeled disk time (deterministic per
// scale/seed). The reference column is the full drain of the unbounded
// query on the same cold store:
//
//   - first result: the modeled I/O consumed before the first result
//     is available — one head per partition, against every partition
//     read to the end.
//   - top-k drain: the stream stops scanning — and stops charging — at
//     the k-th result (cross-partition early termination), skipping
//     every fracture's cutoff chase.
func StreamingLatency(ctx context.Context, e *Env) (*Experiment, error) {
	store, disk, err := buildStreamingStore(e)
	if err != nil {
		return nil, err
	}

	// streamCost drains req's stream on a cold store, stopping (and
	// closing) after pulls results when pulls >= 0.
	streamCost := func(req fracture.Req, pulls int) (time.Duration, error) {
		return coldRun(disk, store.DropCaches, func() error {
			prep, err := store.Prepare(ctx, req)
			if err != nil {
				return err
			}
			st := prep.Stream(ctx)
			defer st.Close()
			for n := 0; pulls < 0 || n < pulls; n++ {
				_, ok, err := st.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
			}
			return nil
		})
	}

	// qt below the cutoff: the full drain must merge the cutoff
	// entries in, but the stream defers every partition's chase until
	// the consumer actually pulls below the cutoff boundary.
	const ptqQT = 0.05
	ptq := fracture.Req{Kind: fracture.KindPTQ, Value: "hot", QT: ptqQT}
	topk := fracture.Req{Kind: fracture.KindTopK, Value: "hot", K: streamingTopK}
	// A top-k's unbounded query is the PTQ with no threshold.
	unbounded := fracture.Req{Kind: fracture.KindPTQ, Value: "hot"}

	exp := &Experiment{
		ID:      "streaming-latency",
		Title:   fmt.Sprintf("Incremental streaming vs the full drain (%d partitions)", store.NumFractures()+1),
		XLabel:  "measurement",
		Columns: []string{"Streaming [s]", "Full drain [s]", "Saved %"},
		Notes:   "modeled cold-cache disk time; 'first result' is the I/O consumed before the first row is available; 'Full drain' drains the unbounded query (a top-k's is the PTQ with no threshold)",
	}
	for _, m := range []struct {
		label string
		req   fracture.Req
		pulls int
		ref   fracture.Req
	}{
		{fmt.Sprintf("top-%d first result", streamingTopK), topk, 1, unbounded},
		{fmt.Sprintf("top-%d early-terminated drain", streamingTopK), topk, -1, unbounded},
		{fmt.Sprintf("Q1 qt=%.2f first result", ptqQT), ptq, 1, ptq},
	} {
		cost, err := streamCost(m.req, m.pulls)
		if err != nil {
			return nil, err
		}
		full, err := streamCost(m.ref, -1)
		if err != nil {
			return nil, err
		}
		if cost >= full {
			return nil, fmt.Errorf("bench: %s charged %v, the full drain %v — early termination saved nothing", m.label, cost, full)
		}
		exp.Rows = append(exp.Rows, Row{
			Label:  m.label,
			Values: []float64{seconds(cost), seconds(full), 100 * (1 - float64(cost)/float64(full))},
		})
	}
	return exp, nil
}
