package upidb

// Per-query accounting tests: a query's modeled time is its own I/O
// and nothing else, however other queries and merges overlap it, and
// every file the engine leaves behind is either charged (a partition)
// or a sideband durability file charged to nobody.

import (
	"context"
	"iter"
	"regexp"
	"testing"
	"time"
)

// coldModeled runs q to completion on a cold cache and returns its
// modeled time.
func coldModeled(t *testing.T, tab *Table, q Query) time.Duration {
	t.Helper()
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	res, err := tab.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 || res.Err() != nil {
		t.Fatalf("%v: %d rows, err %v", q, res.Len(), res.Err())
	}
	return res.Info().ModeledTime
}

// pull starts q and steps it one row at a time in the calling
// goroutine. Its stop must be called.
func pull(t *testing.T, tab *Table, q Query) (step func() bool, res *Results, stop func()) {
	t.Helper()
	res, err := tab.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	next, stop := iter.Pull2(res.All())
	return func() bool {
		_, err, ok := next()
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}, res, stop
}

// TestStatsExactAcrossMerge: a PTQ pulled for one row, then a Merge of
// the partitions it is reading, then drained, reports no more than its
// serial cold figure — the merge's reads are the merge's, and the pages
// it cached are free hits — and its figure plus the merge's disk charge
// is exactly what the disk was charged.
func TestStatsExactAcrossMerge(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 1)
	q := PTQ("", "v01", 0)
	serial := coldModeled(t, tab, q)
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}

	start := db.DiskStats().Elapsed
	step, res, stop := pull(t, tab, q)
	defer stop()
	if !step() {
		t.Fatal("no first row")
	}
	before := db.DiskStats().Elapsed
	if err := tab.Merge(); err != nil {
		t.Fatal(err)
	}
	merge := db.DiskStats().Elapsed - before
	for step() {
	}
	got := res.Info().ModeledTime
	if got > serial {
		t.Fatalf("query overlapping a merge reports %v, serial cold %v", got, serial)
	}
	if total := db.DiskStats().Elapsed - start; got+merge != total {
		t.Fatalf("query %v + merge %v = %v, disk charged %v", got, merge, got+merge, total)
	}
}

// TestStatsExactForOverlappingQueries: a PTQ pulled for one row, then
// a PTQ on another value run to completion over the same partitions,
// then the caches dropped and the first drained. The second reports no
// more than its serial cold figure, and the first pays for what it
// reads after the drop: the two figures add up to what the disk was
// charged.
func TestStatsExactForOverlappingQueries(t *testing.T) {
	db := mustCreate(t)
	tab := fracturedTable(t, db, 1)
	q1, q3 := PTQ("", "v01", 0), PTQ("", "v03", 0)
	serial3 := coldModeled(t, tab, q3)
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}

	start := db.DiskStats().Elapsed
	step1, res1, stop1 := pull(t, tab, q1)
	defer stop1()
	if !step1() {
		t.Fatal("no first row")
	}
	step3, res3, stop3 := pull(t, tab, q3)
	defer stop3()
	for step3() {
	}
	if err := tab.DropCaches(); err != nil {
		t.Fatal(err)
	}
	for step1() {
	}
	got1, got3 := res1.Info().ModeledTime, res3.Info().ModeledTime
	if got3 > serial3 {
		t.Fatalf("query overlapping another reports %v, serial cold %v", got3, serial3)
	}
	if total := db.DiskStats().Elapsed - start; got1+got3 != total {
		t.Fatalf("queries %v + %v = %v, disk charged %v", got1, got3, got1+got3, total)
	}
}

// TestFilesAreChargedOrSideband is the storage accounting invariant,
// checked on a real workload: after a durable two-shard table has taken
// inserts, deletes, flushes and a merge, and again after a close and a
// reopen, every file is either a partition or delete-set file, whose I/O
// is charged, or a durability file — WAL, manifest and its tmp, shards
// file, marker — marked sideband and charged to nobody. A durability
// file added without its Sideband mark fails here.
func TestFilesAreChargedOrSideband(t *testing.T) {
	sideband := regexp.MustCompile(`^upidb\.meta$|\.(wal|manifest|manifest\.tmp|shards)$`)
	charged := regexp.MustCompile(`\.(main|frac)\d+\.(upi\.(heap|cutoff|sec\.\w+)|delset)$`)
	check := func(db *DB, when string) {
		t.Helper()
		kinds := make(map[string]bool)
		for _, name := range db.fs.List() {
			switch {
			case sideband.MatchString(name):
				kinds[sideband.FindString(name)] = true
				if !db.fs.IsSideband(name) {
					t.Errorf("%s: durability file %s is not sideband", when, name)
				}
			case charged.MatchString(name):
				kinds["partition"] = true
				if db.fs.IsSideband(name) {
					t.Errorf("%s: partition file %s is sideband", when, name)
				}
			default:
				t.Errorf("%s: %s is neither a partition nor a sideband file", when, name)
			}
		}
		for _, k := range []string{"upidb.meta", ".wal", ".manifest", ".shards", "partition"} {
			if !kinds[k] {
				t.Errorf("%s: no %s file; the check is vacuous", when, k)
			}
		}
	}

	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("events", "X", []string{"Y"}, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(1); id <= 60; id++ {
		must(tab.Insert(durTuple(t, id, durVal(id))))
		if id%20 == 0 {
			must(tab.Delete(id - 7))
			must(tab.Flush())
		}
	}
	must(tab.Merge())
	for id := uint64(61); id <= 80; id++ {
		must(tab.Insert(durTuple(t, id, durVal(id))))
	}
	must(tab.Flush())
	must(tab.Delete(3))
	must(tab.Delete(70))
	check(db, "before close")
	must(db.Close())

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.OpenTable("events", "X", []string{"Y"}); err != nil {
		t.Fatal(err)
	}
	check(re, "after reopen")
}
