package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"upidb"
	"upidb/internal/cupi"
	"upidb/internal/heapfile"
	"upidb/internal/prob"
	"upidb/internal/rtree"
)

// spatialLadder builds the continuous UPI's storeys over d and reports
// the spatial layers' metrics: rtree search -> cupi cursors ->
// SpatialTable.Run, plus the heap file and the probability kernel. It
// returns the per-probe times of the SpatialTable.Run storey.
func spatialLadder(ctx context.Context, cfg runConfig, d *spatialData, probes []op, rep *report) ([]time.Duration, error) {
	fs, dir, err := diskFS(cfg.dir)
	defer os.RemoveAll(dir)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	tab, err := cupi.BulkBuild(fs, "cars", d.obs, cupi.Options{})
	if err != nil {
		return nil, err
	}
	defer tab.Close()
	rep.layer("cupi.bulk_build_s", time.Since(start).Seconds())

	rect := func(q circleQuery) prob.Rect {
		return prob.Rect{MinX: q.center.X - q.radius, MinY: q.center.Y - q.radius, MaxX: q.center.X + q.radius, MaxY: q.center.Y + q.radius}
	}
	search, err := measureRung(rung{stream: func(o *op) (int, error) {
		n := 0
		err := tab.RTree().Search(rect(o.circle), func(rtree.Entry) bool { n++; return true })
		return n, err
	}}, probes)
	if err != nil {
		return nil, err
	}
	circles, err := measureRung(rung{stream: func(o *op) (int, error) {
		c := tab.CircleCursor(ctx, o.circle.center, o.circle.radius, circleThreshold)
		defer c.Close()
		return drain(c.Next)
	}}, probes)
	if err != nil {
		return nil, err
	}
	rep.layer("rtree.search_us", us(median(search.stream)))
	rep.layer("cupi.circle_self_us", us(selfTime(circles.stream, search.stream)))
	dseg, err := medianOf(len(probes), func(i int) error {
		c := tab.SegmentCursor(ctx, d.segments[probes[i].pool%len(d.segments)], segmentQT)
		defer c.Close()
		_, err := drain(c.Next)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.layer("cupi.segment_us", us(dseg))

	// Heap file: a full scan, then point reads of rows spread over it.
	var rids []heapfile.RowID
	heap := tab.Heap()
	start = time.Now()
	if err := heap.Scan(func(id heapfile.RowID, _ []byte) bool { rids = append(rids, id); return true }); err != nil {
		return nil, err
	}
	rep.layer("heapfile.scan_ns_per_rec", float64(time.Since(start))/float64(max(len(rids), 1)))
	step := max(len(rids)/256, 1)
	dget, err := medianOf(len(rids)/step, func(i int) error {
		_, _, err := heap.Get(rids[i*step])
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.layer("heapfile.get_us", us(dget))

	// The probability kernel where it integrates: a centre on the
	// circle's edge is neither inside nor outside.
	const calls = 512
	g := d.obs[0].Loc
	edge := upidb.Point{X: g.Center.X + 100, Y: g.Center.Y}
	sum := 0.0
	start = time.Now()
	for i := 0; i < calls; i++ {
		sum += g.ProbInCircle(edge, 100)
	}
	rep.layer("prob.circle_ns", float64(time.Since(start))/calls)
	if p := sum / calls; p < 0.3 || p > 0.7 {
		return nil, fmt.Errorf("ProbInCircle of a centre on the circle's edge = %v, want about a half", p)
	}

	dins, err := medianOf(64, func(i int) error { return tab.Insert(d.freshObs(1_000_000 + i)) })
	if err != nil {
		return nil, err
	}
	rep.layer("cupi.insert_us", us(dins))

	// The facade storey.
	db, _, dbDir, err := openDB(cfg.dir, nil)
	defer os.RemoveAll(dbDir)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	st, err := db.BulkLoadSpatial("cars", d.obs)
	if err != nil {
		return nil, err
	}
	facade, err := measureRung(rung{stream: transportRung(ctx, spatialTransport{st}, opCircle)}, probes)
	if err != nil {
		return nil, err
	}
	rep.Ladder["upidb.stream_us"] = us(median(facade.stream))
	return facade.stream, nil
}
