package upidb

// The buffer pool: every file a database opens draws from its one
// pool, whatever produced the file and across a reopen; the pool's
// resident bytes never pass its capacity however many tables share
// it; a removed file leaves it at once; and a set of popular values
// larger than the index packages' 512-page pool stays cached from one
// round of queries to the next, as does a spatial table's R-Tree
// larger than 512 of its 4 KiB nodes.

import (
	"context"
	"fmt"
	"strings"
	"sync"
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

// checkPagers fails unless every pager draws from db's pool.
func checkPagers(t *testing.T, step string, db *DB, pagers []*storage.Pager) {
	t.Helper()
	for _, p := range pagers {
		if p.Pool() != db.pool {
			t.Fatalf("%s: %s draws from a pool of its own, not the database's", step, p.File().Name())
		}
	}
	t.Logf("%s: %d files", step, len(pagers))
}

// TestEveryPagerDrawsFromTheDBPool: the main of a bulk load, flushed
// fractures, the main a Merge writes, every partition OpenTable
// reopens (their cutoff and secondary files included) and each of a
// spatial table's three files draw from the database's one pool.
func TestEveryPagerDrawsFromTheDBPool(t *testing.T) {
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
	checkPagers(t, "bulk load", db, tablePagers(tab))
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
	checkPagers(t, "fractures", db, tablePagers(tab))
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	flush()
	checkPagers(t, "merge", db, tablePagers(tab))
	cfg := dataset.DefaultCartelConfig()
	cfg.Observations = 500
	c, err := dataset.GenerateCartel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cars, err := db.BulkLoadSpatial("cars", c.Observations)
	if err != nil {
		t.Fatal(err)
	}
	checkPagers(t, "spatial", db, cars.tab.Pagers())
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
	checkPagers(t, "reopen", db, tablePagers(tab))
}

// payloadTuple is a tuple of one certain value of X with a payload of
// n bytes.
func payloadTuple(t testing.TB, id uint64, value string, n int) *Tuple {
	t.Helper()
	x, err := NewDiscrete([]Alternative{{Value: value, Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return &Tuple{ID: id, Existence: 0.9, Unc: []UncField{{Name: "X", Dist: x}}, Payload: make([]byte, n)}
}

// residentBytes reads the resident-bytes gauge.
func residentBytes(db *DB) int64 {
	return int64(db.Metrics().Gauges["upidb_bufferpool_resident_bytes"])
}

// TestPoolBudgetHoldsAcrossTables: eight discrete tables and two
// spatial tables, together several times larger than a 16 MiB pool,
// share it while each is queried over its whole extent; the
// resident-bytes gauge, read after every query, never passes the
// budget, and does come close to it.
func TestPoolBudgetHoldsAcrossTables(t *testing.T) {
	const budget = 16 << 20
	db := mustCreate(t)
	if err := db.pool.SetCapacity(budget); err != nil {
		t.Fatal(err)
	}
	const values = 8
	var tables []*Table
	for i := 0; i < 8; i++ {
		var load []*Tuple
		for j := 0; j < 2400; j++ {
			load = append(load, payloadTuple(t, uint64(j+1), fmt.Sprintf("v%d", j%values), 1500))
		}
		tab, err := db.BulkLoadTable(fmt.Sprintf("d%d", i), "X", nil, load, WithCutoff(0.1))
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tab)
	}
	var (
		spatials []*SpatialTable
		cartels  []*dataset.Cartel
	)
	for i := 0; i < 2; i++ {
		cfg := dataset.DefaultCartelConfig()
		cfg.Observations, cfg.Seed = 20000, int64(10+i)
		c, err := dataset.GenerateCartel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := db.BulkLoadSpatial(fmt.Sprintf("s%d", i), c.Observations)
		if err != nil {
			t.Fatal(err)
		}
		spatials, cartels = append(spatials, sp), append(cartels, c)
	}
	if size := db.fs.TotalSize(); size < 3*budget {
		t.Fatalf("the tables hold %d B, want several times the %d B budget", size, budget)
	}
	ctx := context.Background()
	peak := int64(0)
	sample := func(what string) {
		t.Helper()
		got := residentBytes(db)
		if got > budget {
			t.Fatalf("after %s: %d resident bytes, budget %d", what, got, budget)
		}
		peak = max(peak, got)
	}
	for round := 0; round < 2; round++ {
		for i, tab := range tables {
			for v := 0; v < values; v++ {
				res, err := tab.Run(ctx, PTQ("", fmt.Sprintf("v%d", v), 0.5))
				if err != nil {
					t.Fatal(err)
				}
				if got := len(res.Collect()); got != 2400/values {
					t.Fatalf("d%d v%d: %d rows, want %d", i, v, got, 2400/values)
				}
				sample(fmt.Sprintf("d%d v%d", i, v))
			}
		}
		for i, sp := range spatials {
			e := cartels[i].Extent
			const steps = 4
			for x := 0; x < steps; x++ {
				for y := 0; y < steps; y++ {
					at := Point{
						X: e.MinX + (float64(x)+0.5)*(e.MaxX-e.MinX)/steps,
						Y: e.MinY + (float64(y)+0.5)*(e.MaxY-e.MinY)/steps,
					}
					res, err := sp.Run(ctx, Circle(at, 800, 0.3))
					if err != nil {
						t.Fatal(err)
					}
					res.Collect()
					if err := res.Err(); err != nil {
						t.Fatal(err)
					}
					sample(fmt.Sprintf("s%d circle %d,%d", i, x, y))
				}
			}
		}
	}
	if peak < budget/2 {
		t.Fatalf("resident bytes peaked at %d, want the tables to fill most of the %d B budget", peak, budget)
	}
	t.Logf("peak resident %d of %d B over %d B of files", peak, budget, db.fs.TotalSize())
}

// removalWatch is a backend that remembers which files were removed
// and records every transfer that names one of them afterwards.
type removalWatch struct {
	storage.Backend
	mu      sync.Mutex
	removed map[string]bool
	late    []string
}

func (b *removalWatch) touch(op, name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.removed[name] {
		b.late = append(b.late, op+" "+name)
	}
}

func (b *removalWatch) Create(name string) error {
	b.mu.Lock()
	delete(b.removed, name)
	b.mu.Unlock()
	return b.Backend.Create(name)
}

func (b *removalWatch) Remove(name string) error {
	b.mu.Lock()
	b.removed[name] = true
	b.mu.Unlock()
	return b.Backend.Remove(name)
}

func (b *removalWatch) ReadAt(name string, p []byte, off int64) error {
	b.touch("read", name)
	return b.Backend.ReadAt(name, p, off)
}

func (b *removalWatch) WriteAt(name string, p []byte, off int64) error {
	b.touch("write", name)
	return b.Backend.WriteAt(name, p, off)
}

// TestRemovedFilesLeaveThePool: a full merge dooms the old main, which
// a pending query still pins; when that query is released, the main's
// files are removed and the pool's resident bytes fall by exactly what
// their pages cost it: no page of theirs is left, and the live files
// keep every page they had, which are then all the pool holds. No
// transfer names a removed file afterwards, though the pool, shrunk to
// a few pages, keeps evicting through later inserts, flushes, merges
// and queries.
func TestRemovedFilesLeaveThePool(t *testing.T) {
	watch := &removalWatch{Backend: storage.NewMemBackend(), removed: make(map[string]bool)}
	db := mustCreate(t, WithBackend(watch))
	var load []*Tuple
	for i := 0; i < 1200; i++ {
		load = append(load, rowsTuple(t, uint64(i+1), i, 0.3+float64(i%60)/100))
	}
	tab, err := db.BulkLoadTable("t", "X", []string{"Y"}, load, WithCutoff(0.2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queryAll := func() {
		t.Helper()
		for v := 0; v < 7; v++ {
			res, err := tab.Run(ctx, PTQ("", fmt.Sprintf("v%02d", v), 0.1))
			if err != nil {
				t.Fatal(err)
			}
			res.Collect()
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	queryAll()
	var doomed []*storage.Pager
	for _, tr := range tab.shards.Store(0).Main().Trees() {
		doomed = append(doomed, tr.Pager())
	}
	pinned, err := tab.Run(ctx, PTQ("", "v01", 0.1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tab.Insert(rowsTuple(t, uint64(5000+i), i, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	doomedPages := 0
	for _, p := range doomed {
		if !db.fs.Exists(p.File().Name()) {
			t.Fatalf("%s removed while a query still pins it", p.File().Name())
		}
		doomedPages += p.CachedPages()
	}
	if doomedPages == 0 {
		t.Fatal("the old main had no page in the pool; check vacuous")
	}
	live := tablePagers(tab)
	livePages := make([]int, len(live))
	for i, p := range live {
		livePages[i] = p.CachedPages()
	}
	before := db.pool.Resident()
	pinned.Close()
	after := db.pool.Resident()
	for _, p := range doomed {
		if db.fs.Exists(p.File().Name()) || p.CachedPages() != 0 {
			t.Fatalf("%s: exists=%v with %d pages cached after its last pin went", p.File().Name(), db.fs.Exists(p.File().Name()), p.CachedPages())
		}
	}
	for i, p := range live {
		if p.CachedPages() != livePages[i] {
			t.Fatalf("releasing the old main took %s from %d cached pages to %d", p.File().Name(), livePages[i], p.CachedPages())
		}
	}
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if left := db.pool.Resident(); after >= before || left != 0 {
		t.Fatalf("resident bytes %d before the release, %d after, %d once the live files dropped theirs; want a fall to exactly the live files' share", before, after, left)
	}
	t.Logf("releasing the old main freed %d of %d resident bytes (%d pages)", before-after, before, doomedPages)

	if err := db.pool.SetCapacity(8 * storage.DefaultPageSize); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		res, err := tab.Run(ctx, PTQ("", "v02", 0.1)) // pins this round's main across the merge
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			id := uint64(6000 + 40*round + i)
			if err := tab.Insert(rowsTuple(t, id, i, 0.6)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.Flush(); err != nil {
			t.Fatal(err)
		}
		queryAll()
		if err := tab.Merge(); err != nil {
			t.Fatal(err)
		}
		res.Collect()
		queryAll()
	}
	watch.mu.Lock()
	defer watch.mu.Unlock()
	if len(watch.removed) < 3 {
		t.Fatalf("only %d files removed; check vacuous", len(watch.removed))
	}
	if len(watch.late) > 0 {
		t.Fatalf("%d transfers named removed files, first: %s", len(watch.late), strings.Join(watch.late[:min(5, len(watch.late))], ", "))
	}
}

// TestHotSetStaysCached: four popular values whose heap entries span
// more pages than the index packages' 512-page pool and fit the
// database's pool are read twice over; the second round is served from
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
	if n := heap.NumPages(); n <= storage.DefaultCachePages || int(n)*heap.PageSize() >= dbPoolBytes {
		t.Fatalf("heap has %d pages, want more than %d and fewer than %d",
			n, storage.DefaultCachePages, dbPoolBytes/heap.PageSize())
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
// than 512 of its 4 KiB nodes draws from the database's pool on all
// three files, and a sweep of circle queries over the whole extent, run
// a second time, is served from the pool without a single miss.
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
	checkPagers(t, "spatial", db, tab.tab.Pagers())
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

// TestCrossTableWritesSurviveSharedEviction: a spatial table takes
// inserts, and a discrete table inserts and deletes, while four
// discrete tables' queries cycle a pool of a few spatial heap pages,
// so other tables' readers evict the pages the writers are changing.
// Afterwards every acknowledged insert is found and no deleted row is.
// Run it under -race: a page changed outside the pool's lock shows up
// as a race with the write-back, or as a lost row.
func TestCrossTableWritesSurviveSharedEviction(t *testing.T) {
	db := mustCreate(t)
	var tables []*Table
	for i := 0; i < 4; i++ {
		var load []*Tuple
		for j := 0; j < 800; j++ {
			load = append(load, payloadTuple(t, uint64(j+1), fmt.Sprintf("v%d", j%4), 600))
		}
		tab, err := db.BulkLoadTable(fmt.Sprintf("d%d", i), "X", nil, load, WithCutoff(0.1))
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tab)
	}
	cfg := dataset.DefaultCartelConfig()
	cfg.Observations = 1500
	c, err := dataset.GenerateCartel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cars, err := db.BulkLoadSpatial("cars", c.Observations)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observations, cfg.Seed = 300, 77
	extra, err := dataset.GenerateCartel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.pool.SetCapacity(4 * storage.HeapPageSize); err != nil {
		t.Fatal(err)
	}
	adds := make([]*Tuple, len(extra.Observations))
	for i := range adds {
		adds[i] = payloadTuple(t, uint64(10000+i), fmt.Sprintf("v%d", i%4), 600)
	}

	ctx := context.Background()
	done := make(chan struct{})
	var (
		wg       sync.WaitGroup
		inserted []*Observation
		deleted  []uint64
		added    []uint64
	)
	errc := make(chan error, 8)
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		defer close(done)
		w := tables[0]
		for i, o := range extra.Observations {
			o.ID += 1 << 20
			if err := cars.Insert(o); err != nil {
				errc <- err
				return
			}
			inserted = append(inserted, o)
			if err := w.Delete(uint64(i + 1)); err != nil {
				errc <- err
				return
			}
			deleted = append(deleted, uint64(i+1))
			if err := w.Insert(adds[i]); err != nil {
				errc <- err
				return
			}
			added = append(added, adds[i].ID)
			if i%50 == 49 {
				if err := w.Flush(); err != nil {
					errc <- err
					return
				}
			}
		}
	}()
	for r, tab := range tables {
		wg.Add(1)
		go func() { // a reader cycling the pool
			defer wg.Done()
			for v := 0; ; v++ {
				select {
				case <-done:
					return
				default:
				}
				res, err := tab.Run(ctx, PTQ("", fmt.Sprintf("v%d", (v+r)%4), 0.5))
				if err != nil {
					errc <- err
					return
				}
				res.Collect()
				if err := res.Err(); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for _, o := range inserted {
		res, err := cars.Run(ctx, Circle(Point{X: o.Loc.Center.X, Y: o.Loc.Center.Y}, o.Loc.Bound, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range res.Collect() {
			found = found || r.Obs.ID == o.ID
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("acknowledged spatial insert %d is lost", o.ID)
		}
	}
	seen := make(map[uint64]bool)
	for v := 0; v < 4; v++ {
		res, err := tables[0].Run(ctx, PTQ("", fmt.Sprintf("v%d", v), 0.5))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Collect() {
			seen[r.Tuple.ID] = true
		}
	}
	for _, id := range deleted {
		if seen[id] {
			t.Fatalf("deleted row %d is still found", id)
		}
	}
	for _, id := range added {
		if !seen[id] {
			t.Fatalf("acknowledged insert %d is lost", id)
		}
	}
	t.Logf("%d spatial inserts, %d deletes and %d inserts checked", len(inserted), len(deleted), len(added))
}
