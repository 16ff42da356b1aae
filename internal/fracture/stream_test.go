package fracture

// Tests for the k-way merged stream, the store's one executor: rows and
// order against a brute-force oracle at every parallelism, exact
// modeled cost on full drains, per-partition pin release, top-k early
// termination, and mid-stream cancellation.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"upidb/internal/obs"
	"upidb/internal/prob"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/tuple"
	"upidb/internal/upi"
)

// drainStream pulls a stream to exhaustion.
func drainStream(t *testing.T, st *Stream) []upi.Result {
	t.Helper()
	out, err := upi.Drain(st.Next)
	if err != nil {
		t.Fatalf("stream error: %v", err)
	}
	return out
}

func resultKeys(rs []upi.Result) [][2]float64 {
	out := make([][2]float64, len(rs))
	for i, r := range rs {
		out[i] = [2]float64{float64(r.Tuple.ID), r.Confidence}
	}
	return out
}

// concLive is the oracle's view of buildConcStore(nFrac, batch): the
// live tuples by ID, derived from the builder's recipe and not from the
// store.
func concLive(nFrac, batch int) map[uint64]*tuple.Tuple {
	live := make(map[uint64]*tuple.Tuple)
	for id := uint64(1); id <= uint64((4+nFrac)*batch); id++ {
		live[id] = concTuple(id, int(id))
	}
	for f := 0; f < nFrac; f++ {
		delete(live, uint64(f*batch+1))
	}
	return live
}

// oracleRows answers req by brute force over the live tuples: filter
// by confidence, sort (confidence DESC, ID ASC), truncate a top-k.
func oracleRows(live map[uint64]*tuple.Tuple, primary string, req Req) [][2]float64 {
	attr := req.Attr
	if attr == "" {
		attr = primary
	}
	var rows [][2]float64
	for id, tup := range live {
		conf := tup.Confidence(attr, req.Value)
		if conf > 0 && (req.Kind == KindTopK || conf >= req.QT) {
			rows = append(rows, [2]float64{float64(id), conf})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i][1] != rows[j][1] {
			return rows[i][1] > rows[j][1]
		}
		return rows[i][0] < rows[j][0]
	})
	if req.Kind == KindTopK && len(rows) > req.K {
		rows = rows[:req.K]
	}
	return rows
}

// sameRows reports whether got holds want's IDs in want's order, with
// confidences equal up to the heap key's rounding.
func sameRows(got []upi.Result, want [][2]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, r := range got {
		if float64(r.Tuple.ID) != want[i][0] || math.Abs(r.Confidence-want[i][1]) > 1e-9 {
			return false
		}
	}
	return true
}

// TestStreamMatchesCollect: for every query kind and at serial, narrow
// and wide parallelism, the merged stream — pulled row by row, or
// drained by Collect — yields exactly the oracle's rows in the
// oracle's order.
func TestStreamMatchesCollect(t *testing.T) {
	reqs := []Req{
		{Kind: KindPTQ, Value: concValue(3), QT: 0.05},
		{Kind: KindPTQ, Value: concValue(3), QT: 0.4},
		{Kind: KindSecondary, Attr: "Y", Value: "y" + concValue(2), QT: 0.05, Tailored: true},
		{Kind: KindTopK, Value: concValue(4), K: 9},
	}
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		setProcs(t, par)
		s, _ := buildConcStore(t, 5, 30)
		live := concLive(5, 30)
		// Leave work in the RAM buffer so the merge crosses every
		// partition type, and a pending delete so supersedence applies
		// at yield time.
		for id, v := range map[uint64]int{90001: 3, 90002: 4} {
			if err := s.Insert(concTuple(id, v)); err != nil {
				t.Fatal(err)
			}
			live[id] = concTuple(id, v)
		}
		if err := s.Delete(7); err != nil {
			t.Fatal(err)
		}
		delete(live, 7)
		for qi, req := range reqs {
			want := oracleRows(live, "X", req)
			if len(want) == 0 {
				t.Fatalf("q=%d: oracle is empty; parity vacuous", qi)
			}
			prep, err := s.Prepare(context.Background(), req)
			if err != nil {
				t.Fatalf("par=%d q=%d prepare: %v", par, qi, err)
			}
			if got := drainStream(t, prep.Stream(context.Background())); !sameRows(got, want) {
				t.Fatalf("par=%d q=%d: stream %v diverged from oracle %v", par, qi, resultKeys(got), want)
			}
			got, _, err := s.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("par=%d q=%d collect: %v", par, qi, err)
			}
			if !sameRows(got, want) {
				t.Fatalf("par=%d q=%d: collect %v diverged from oracle %v", par, qi, resultKeys(got), want)
			}
		}
	}
}

// TestStreamModeledCostMatchesCollect: a fully drained PTQ charges
// exactly the serial sum of its partitions' cold drains — one table
// open plus the partition cursor's own I/O each — at any parallelism
// and whether pulled through Stream or drained by Collect: the
// per-partition tapes hold the same operations and replay in
// self-contained batches.
func TestStreamModeledCostMatchesCollect(t *testing.T) {
	req := Req{Kind: KindPTQ, Value: concValue(3), QT: 0.05}
	s, disk := buildConcStore(t, 5, 30)
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	parts := []*upi.Table{s.main}
	for _, f := range s.fractures {
		parts = append(parts, f.table)
	}
	before := disk.Stats()
	for _, part := range parts {
		disk.Open(part.Name())
		if _, _, err := part.Query(context.Background(), req.Value, req.QT); err != nil {
			t.Fatal(err)
		}
	}
	want := disk.Stats().Sub(before).Elapsed
	if want <= 0 {
		t.Fatal("serial per-partition drains charged nothing")
	}
	for _, par := range []int{1, 4} {
		setProcs(t, par)
		if err := s.DropCaches(); err != nil {
			t.Fatal(err)
		}
		before := disk.Stats()
		prep, err := s.Prepare(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		stream := prep.Stream(context.Background())
		drainStream(t, stream)
		if got := stream.Stats().ModeledTime; got != want {
			t.Fatalf("par=%d: stream modeled %v != serial partition sum %v", par, got, want)
		}
		if d := disk.Stats().Sub(before); d.Elapsed != want {
			t.Fatalf("par=%d: disk charged %v, stream reported %v", par, d.Elapsed, want)
		}
		if err := s.DropCaches(); err != nil {
			t.Fatal(err)
		}
		if _, st, err := s.Run(context.Background(), req); err != nil || st.ModeledTime != want {
			t.Fatalf("par=%d: collect modeled %v (err %v) != serial partition sum %v", par, st.ModeledTime, err, want)
		}
	}
}

// coldCost runs fn against a cold store and returns the modeled disk
// time it charged.
func coldCost(t *testing.T, s *Store, fn func()) time.Duration {
	t.Helper()
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	before := s.fs.Disk().Stats()
	fn()
	return s.fs.Disk().Stats().Sub(before).Elapsed
}

// TestStreamTopKEarlyTermination: a top-k stream over many partitions
// yields its first result — and its full k results — for strictly
// less modeled I/O than draining the same value's unbounded PTQ, whose
// rows it must be a prefix of. The store is engineered so the main
// partition holds plenty of high-confidence matches while every
// fracture has fewer than k heap matches plus many below-cutoff
// alternatives: the full drain chases every fracture's cutoff pointers,
// while the top-k fills its k results from the main partition and
// never pulls any fracture past its first head.
func TestStreamTopKEarlyTermination(t *testing.T) {
	setProcs(t, 1)
	hot := func(id uint64, conf float64) *tuple.Tuple {
		x, err := prob.NewDiscrete([]prob.Alternative{{Value: "hot", Prob: conf}})
		if err != nil {
			t.Fatal(err)
		}
		return &tuple.Tuple{ID: id, Existence: 1, Unc: []tuple.UncField{{Name: "X", Dist: x}}}
	}
	coldHot := func(id uint64) *tuple.Tuple {
		x, err := prob.NewDiscrete([]prob.Alternative{
			{Value: "cold", Prob: 0.8}, {Value: "hot", Prob: 0.1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return &tuple.Tuple{ID: id, Existence: 1, Unc: []tuple.UncField{{Name: "X", Dist: x}}}
	}
	disk := sim.NewDisk(sim.DefaultParams())
	fs := storage.NewFS(disk)
	id := uint64(1)
	var base []*tuple.Tuple
	for i := 0; i < 60; i++ {
		base = append(base, hot(id, 0.5+float64(i)*0.008))
		id++
	}
	s, err := BulkLoad(fs, "topk", "X", nil, Config{UPI: upi.Options{Cutoff: 0.15}}, base)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 6; f++ {
		for j := 0; j < 4; j++ {
			if err := s.Insert(hot(id, 0.2+float64(f*4+j)*0.01)); err != nil {
				t.Fatal(err)
			}
			id++
		}
		for j := 0; j < 20; j++ {
			// "hot" at confidence 0.1 — below the cutoff, so it lives
			// in the fracture's cutoff index.
			if err := s.Insert(coldHot(id)); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	req := Req{Kind: KindTopK, Value: "hot", K: 20}

	var want []upi.Result
	fullCost := coldCost(t, s, func() {
		want, _, err = s.Run(context.Background(), Req{Kind: KindPTQ, Value: "hot"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= req.K || fullCost <= 0 {
		t.Fatalf("unbounded drain: %d rows, cost %v", len(want), fullCost)
	}
	want = want[:req.K]

	// First result: the stream needs one head per partition, not any
	// partition's completed scan.
	firstCost := coldCost(t, s, func() {
		prep, err := s.Prepare(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		stream := prep.Stream(context.Background())
		first, ok, err := stream.Next()
		if err != nil || !ok {
			t.Fatalf("first pull: ok=%v err=%v", ok, err)
		}
		if first.ID() != want[0].Tuple.ID || first.Confidence != want[0].Confidence {
			t.Fatalf("first streamed result %d/%v, want %d/%v",
				first.ID(), first.Confidence, want[0].Tuple.ID, want[0].Confidence)
		}
		stream.Close()
	})
	if firstCost >= fullCost {
		t.Fatalf("first-result cost %v not below full-drain cost %v", firstCost, fullCost)
	}

	// Full top-k, drained by Collect: the unbounded drain's first k
	// rows, for strictly less modeled I/O — the drain early-terminates
	// exactly like a hand-pulled stream.
	var got []upi.Result
	var st Stats
	topkCost := coldCost(t, s, func() {
		got, st, err = s.Run(context.Background(), req)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultKeys(got), resultKeys(want)) {
		t.Fatalf("top-k diverged from the unbounded drain's prefix")
	}
	if topkCost >= fullCost || st.ModeledTime != topkCost {
		t.Fatalf("top-k cost %v (reported %v) not below full-drain cost %v", topkCost, st.ModeledTime, fullCost)
	}
}

// TestStreamReleasesPinsIncrementally: once the stream is exhausted —
// and on Close after a partial drain — every partition pin is back,
// so a merge can reclaim the old generation immediately. Cancelling
// mid-stream behaves the same and stops charging.
func TestStreamReleasesPinsIncrementally(t *testing.T) {
	setProcs(t, 1)
	s, disk := buildConcStore(t, 5, 30)
	req := Req{Kind: KindPTQ, Value: concValue(3), QT: 0.05}

	// Partial drain + Close.
	prep, err := s.Prepare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	stream := prep.Stream(context.Background())
	if _, ok, err := stream.Next(); !ok || err != nil {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}
	stream.Close()
	after := disk.Stats()
	if _, ok, err := stream.Next(); ok || err != nil {
		t.Fatalf("closed stream yielded: ok=%v err=%v", ok, err)
	}
	if d := disk.Stats().Sub(after); d.Elapsed != 0 {
		t.Fatalf("closed stream kept charging: %v", d)
	}

	// Cancellation mid-stream: terminates with ErrCanceled, stops
	// charging, releases pins.
	ctx := newCountdownCtx(20)
	prep, err = s.Prepare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	stream = prep.Stream(ctx)
	var streamErr error
	for {
		_, ok, err := stream.Next()
		if err != nil {
			streamErr = err
			break
		}
		if !ok {
			break
		}
	}
	if !errors.Is(streamErr, upi.ErrCanceled) {
		t.Fatalf("cancelled stream: want ErrCanceled, got %v", streamErr)
	}
	after = disk.Stats()
	if _, ok, err := stream.Next(); ok || !errors.Is(err, upi.ErrCanceled) {
		t.Fatalf("cancelled stream resumed: ok=%v err=%v", ok, err)
	}
	if d := disk.Stats().Sub(after); d.Elapsed != 0 {
		t.Fatalf("cancelled stream kept charging: %v", d)
	}

	// All pins must be back: after a merge no old-generation file may
	// survive.
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	for _, name := range s.fs.List() {
		if strings.Contains(name, ".frac") {
			t.Fatalf("leaked stream pin kept %s alive after merge", name)
		}
	}
	rs, _, err := s.Run(context.Background(), Req{Kind: KindPTQ, Value: concValue(3), QT: 0.05})
	if err != nil || len(rs) == 0 {
		t.Fatalf("store broken after streamed queries + merge: %v (%d rows)", err, len(rs))
	}
}

// TestStreamSurvivesConcurrentMerge: a stream opened before a merge
// finishes on the generation it pinned, even though the merge swapped
// and doomed those partitions midway.
func TestStreamSurvivesConcurrentMerge(t *testing.T) {
	setProcs(t, 1)
	s, _ := buildConcStore(t, 5, 30)
	req := Req{Kind: KindPTQ, Value: concValue(3), QT: 0.05}
	want, _, err := s.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := s.Prepare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	stream := prep.Stream(context.Background())
	// Pull one result, then merge underneath the open stream.
	if _, ok, err := stream.Next(); !ok || err != nil {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	rest := drainStream(t, stream)
	if len(rest)+1 != len(want) {
		t.Fatalf("stream across merge: got %d rows, want %d", len(rest)+1, len(want))
	}
	for i, r := range rest {
		w := want[i+1]
		if r.Tuple.ID != w.Tuple.ID || r.Confidence != w.Confidence {
			t.Fatalf("row %d across merge: got %d/%v want %d/%v",
				i+1, r.Tuple.ID, r.Confidence, w.Tuple.ID, w.Confidence)
		}
	}
}

// TestPreparedSingleConsumption: a Prepared may be consumed once;
// Release is safe before, after and instead of consumption.
func TestPreparedSingleConsumption(t *testing.T) {
	s, _ := buildConcStore(t, 2, 10)
	req := Req{Kind: KindPTQ, Value: concValue(1), QT: 0.1}
	prep, err := s.Prepare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prep.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prep.Collect(context.Background()); !errors.Is(err, errConsumed) {
		t.Fatalf("second Collect: %v", err)
	}
	if _, ok, err := prep.Stream(context.Background()).Next(); ok || !errors.Is(err, errConsumed) {
		t.Fatalf("stream after Collect: ok=%v err=%v", ok, err)
	}
	prep.Release() // idempotent after consumption

	// Release without consumption leaves no pins behind — and spends
	// the handle, so a later Collect cannot scan unpinned partitions.
	prep, err = s.Prepare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	prep.Release()
	if _, _, err := prep.Collect(context.Background()); !errors.Is(err, errConsumed) {
		t.Fatalf("Collect after Release: %v", err)
	}
	if err := s.Merge(); err != nil {
		t.Fatal(err)
	}
	for _, name := range s.fs.List() {
		if strings.Contains(name, ".frac") {
			t.Fatalf("released Prepared leaked pin on %s", name)
		}
	}
}

// TestPrepareAllFailureReleasesPins: when store i of the merge refuses
// its snapshot, the stores pinned before it are released — as many pin
// releases as pins taken — so their next merge removes the old files.
func TestPrepareAllFailureReleasesPins(t *testing.T) {
	met := obs.NewEngineMetrics(obs.NewRegistry())
	stores := make([]*Store, 3)
	pinned := 0
	for i := range stores {
		stores[i], _ = buildConcStore(t, 3, 10)
		stores[i].opts.Metrics = met
		if i < 2 {
			pinned += 1 + stores[i].NumFractures()
		}
	}
	if err := stores[2].Close(); err != nil {
		t.Fatal(err)
	}
	_, err := PrepareAll(context.Background(), stores, Req{Kind: KindPTQ, Value: concValue(1), QT: 0.1})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("PrepareAll over a closed store: %v", err)
	}
	if got := met.PinReleases.Value(); got != int64(pinned) {
		t.Fatalf("%d pins released, %d taken before the failure", got, pinned)
	}
	for i, s := range stores[:2] {
		if err := s.Merge(); err != nil {
			t.Fatal(err)
		}
		for _, name := range s.fs.List() {
			if strings.Contains(name, ".frac") {
				t.Fatalf("store %d: failed PrepareAll leaked a pin on %s", i, name)
			}
		}
	}
}
