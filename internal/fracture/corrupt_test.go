package fracture

import (
	"context"
	"reflect"
	"testing"

	"upidb/internal/obs"
	"upidb/internal/tuple"
	"upidb/internal/upi"
	"upidb/internal/upi/upitest"
)

// TestCorruptBodyFailsStreamAndCollect: the merged stream carries heap
// rows as validated encodings and builds none of them. Each body is
// checked once, when the partition's heap page is loaded, and the
// partition's scan turns a rejected one into the codec's error on the
// row that reads it (tuple.ViewOf of frame 0). With a length field
// inside one flushed tuple body overwritten, Stream.Next and
// Prepared.Collect over two stores fail with that error, and every
// partition pin of both stores is released.
func TestCorruptBodyFailsStreamAndCollect(t *testing.T) {
	met := obs.NewEngineMetrics(obs.NewRegistry())
	stores := make([]*Store, 2)
	pins := 0
	for i := range stores {
		stores[i], _ = buildConcStore(t, 3, 20)
		stores[i].opts.Metrics = met
		pins += 1 + stores[i].NumFractures()
	}
	s := stores[1]
	if err := s.DropCaches(); err != nil { // every page on the backend
		t.Fatal(err)
	}
	backend := s.fs.Backend()
	c, err := upitest.CorruptHeapBody(backend, upitest.FractureHeapFile(backend.List()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	_, codecErr := tuple.Decode(c.Body)
	if codecErr == nil {
		t.Fatal("the damaged body still decodes")
	}
	ctx := context.Background()
	req := Req{Kind: KindPTQ, Value: c.Value}

	prep, err := PrepareAll(ctx, stores, req)
	if err != nil {
		t.Fatal(err)
	}
	stream := prep.Stream(ctx)
	for {
		r, ok, err := stream.Next()
		if err != nil {
			if err.Error() != codecErr.Error() {
				t.Fatalf("stream over the damaged entry: %v, want %v", err, codecErr)
			}
			break
		}
		if !ok {
			t.Fatal("stream over the damaged entry ended without an error")
		}
		if r.ID() == c.ID {
			t.Fatalf("stream yielded the damaged tuple %d", c.ID)
		}
	}
	if _, ok, err := stream.Next(); ok || err == nil || err.Error() != codecErr.Error() {
		t.Fatalf("the stream's error is not sticky: ok=%v err=%v", ok, err)
	}
	if got := met.PinReleases.Value(); got != int64(pins) {
		t.Fatalf("failed stream released %d pins of %d", got, pins)
	}

	prep, err = PrepareAll(ctx, stores, req)
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := prep.Collect(ctx)
	if rs != nil || err == nil || err.Error() != codecErr.Error() {
		t.Fatalf("Collect over the damaged entry: %d rows, error %v, want %v", len(rs), err, codecErr)
	}
	if got := met.PinReleases.Value(); got != int64(2*pins) {
		t.Fatalf("failed Collect released %d pins of %d", got-int64(pins), pins)
	}

	// Restored, both stores answer, and Collect hands out built tuples.
	if err := c.Restore(); err != nil {
		t.Fatal(err)
	}
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	prep, err = PrepareAll(ctx, stores, req)
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err = prep.Collect(ctx)
	if err != nil || len(rs) == 0 {
		t.Fatalf("restored: %d rows, error %v", len(rs), err)
	}
	for _, r := range rs {
		if r.Tuple == nil || !reflect.DeepEqual(r, upi.Result{Tuple: r.Tuple, Confidence: r.Confidence}) {
			t.Fatalf("Collect returned an unbuilt row: %+v", r)
		}
	}
}
