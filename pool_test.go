package upidb

// Buffer-pool sizing: every file a discrete table opens gets a pool of
// tablePoolBytes, whatever produced it and across a reopen, and a set
// of popular values larger than the index packages' 512-page pool
// stays cached from one round of queries to the next. So does a
// spatial table's R-Tree larger than 512 of its 4 KiB nodes.

import (
	"context"
	"fmt"
	"testing"

	"upidb/internal/dataset"
	"upidb/internal/storage"
)

// tablePagers returns the pager of every file of every partition of
// every shard of tab: heap, cutoff index and secondary indexes.
func tablePagers(tab *Table) []*storage.Pager {
	var pagers []*storage.Pager
	for i := 0; i < tab.shards.NumShards(); i++ {
		for _, part := range tab.shards.Store(i).Partitions() {
			for _, tr := range part.Trees() {
				pagers = append(pagers, tr.Pager())
			}
		}
	}
	return pagers
}

// checkTablePools fails unless every file of tab has a pool of
// tablePoolBytes.
func checkTablePools(t *testing.T, step string, tab *Table) {
	t.Helper()
	pagers := tablePagers(tab)
	for _, p := range pagers {
		if got := p.CacheLimit() * p.PageSize(); got != tablePoolBytes {
			t.Fatalf("%s: %s has a pool of %d pages x %d B = %d B, want %d",
				step, p.File().Name(), p.CacheLimit(), p.PageSize(), got, tablePoolBytes)
		}
	}
	t.Logf("%s: %d files", step, len(pagers))
}

// TestTablePoolsAreSizedInBytes: the main of a bulk load, flushed
// fractures, the main a Merge writes, and every partition OpenTable
// reopens (their cutoff and secondary files included) each get a
// 32 MiB pool, not the index packages' 512 pages.
func TestTablePoolsAreSizedInBytes(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	var load []*Tuple
	for i := 0; i < 200; i++ {
		load = append(load, shardTestTuple(t, uint64(i+1), i))
	}
	tab, err := db.BulkLoadTable("pool", "X", []string{"Y"}, load, WithCutoff(0.15), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	checkTablePools(t, "bulk load", tab)
	id := uint64(1000)
	flush := func() {
		t.Helper()
		for i := 0; i < 12; i++ {
			if err := tab.Insert(shardTestTuple(t, id, int(id))); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if err := tab.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	flush()
	flush()
	checkTablePools(t, "fractures", tab)
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	flush()
	checkTablePools(t, "merge", tab)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err = db.OpenTable("pool", "X", []string{"Y"}, WithCutoff(0.15))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tablePagers(tab)); n != 2*2*3 {
		t.Fatalf("reopened table has %d files, want main and fracture per shard, 3 files each", n)
	}
	checkTablePools(t, "reopen", tab)
}

// TestHotSetStaysCached: four popular values whose heap entries span
// more pages than the index packages' 512-page pool and fewer than a
// table's 4096 are read twice over; the second round is served from
// the pool without a single miss.
func TestHotSetStaysCached(t *testing.T) {
	db := mustCreate(t)
	payload := make([]byte, 1200)
	var load []*Tuple
	for i := 0; i < 4800; i++ {
		x, err := NewDiscrete([]Alternative{{Value: fmt.Sprintf("hot%d", i%4), Prob: 1}})
		if err != nil {
			t.Fatal(err)
		}
		load = append(load, &Tuple{ID: uint64(i + 1), Existence: 0.9,
			Unc: []UncField{{Name: "X", Dist: x}}, Payload: payload})
	}
	tab, err := db.BulkLoadTable("hot", "X", nil, load, WithCutoff(0.1))
	if err != nil {
		t.Fatal(err)
	}
	heap := tab.shards.Store(0).Main().Heap().Pager()
	if n := heap.NumPages(); n <= storage.DefaultCachePages || int(n)*heap.PageSize() >= tablePoolBytes {
		t.Fatalf("heap has %d pages, want more than %d and fewer than %d",
			n, storage.DefaultCachePages, tablePoolBytes/heap.PageSize())
	}
	t.Logf("heap: %d pages of %d B", heap.NumPages(), heap.PageSize())
	misses := func() int64 { return db.Metrics().Counters["upidb_bufferpool_misses_total"] }
	round := func() int64 {
		t.Helper()
		before := misses()
		for v := 0; v < 4; v++ {
			res, err := tab.Run(context.Background(), PTQ("", fmt.Sprintf("hot%d", v), 0.5))
			if err != nil {
				t.Fatal(err)
			}
			if got := len(res.Collect()); got != 1200 {
				t.Fatalf("hot%d: %d rows, want 1200", v, got)
			}
		}
		return misses() - before
	}
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if first := round(); first == 0 {
		t.Fatal("a round over an emptied pool took no misses")
	}
	if second := round(); second != 0 {
		t.Fatalf("second round took %d pool misses over a %d-page heap, want 0", second, heap.NumPages())
	}
}

// TestSpatialPoolsHoldTheRTree: a spatial table whose R-Tree is larger
// than 512 of its 4 KiB nodes gets pools of tablePoolBytes on all three
// files, and a sweep of circle queries over the whole extent, run a
// second time, is served from the pools without a single miss.
func TestSpatialPoolsHoldTheRTree(t *testing.T) {
	cfg := dataset.DefaultCartelConfig()
	cfg.Observations = 28000
	c, err := dataset.GenerateCartel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := mustCreate(t)
	tab, err := db.BulkLoadSpatial("cars", c.Observations)
	if err != nil {
		t.Fatal(err)
	}
	rt := tab.tab.RTree().Pager()
	if size := db.fs.Size("cars.cupi.rtree"); size <= int64(storage.DefaultCachePages*rt.PageSize()) {
		t.Fatalf("R-Tree file is %d B, want more than a %d-page pool of %d B nodes", size, storage.DefaultCachePages, rt.PageSize())
	}
	for _, p := range []*storage.Pager{rt, tab.tab.Heap().Pager()} {
		if got := p.CacheLimit() * p.PageSize(); got != tablePoolBytes {
			t.Fatalf("%s has a pool of %d pages x %d B = %d B, want %d", p.File().Name(), p.CacheLimit(), p.PageSize(), got, tablePoolBytes)
		}
	}
	t.Logf("R-Tree: %d pages of %d B", rt.NumPages(), rt.PageSize())

	ctx := context.Background()
	misses := func() int64 { return db.Metrics().Counters["upidb_bufferpool_misses_total"] }
	const steps = 6
	sweep := func() (misses0 int64, rows int) {
		t.Helper()
		before := misses()
		for i := 0; i < steps; i++ {
			for j := 0; j < steps; j++ {
				at := Point{
					X: c.Extent.MinX + (float64(i)+0.5)*(c.Extent.MaxX-c.Extent.MinX)/steps,
					Y: c.Extent.MinY + (float64(j)+0.5)*(c.Extent.MaxY-c.Extent.MinY)/steps,
				}
				res, err := tab.Run(ctx, Circle(at, 1000, 0.5))
				if err != nil {
					t.Fatal(err)
				}
				rows += len(res.Collect())
				if err := res.Err(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return misses() - before, rows
	}
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	first, rows := sweep()
	if first == 0 || rows == 0 {
		t.Fatalf("a sweep over emptied pools took %d misses for %d rows", first, rows)
	}
	if second, _ := sweep(); second != 0 {
		t.Fatalf("second sweep took %d pool misses over a %d-page R-Tree, want 0 (first took %d)", second, rt.NumPages(), first)
	}
}
