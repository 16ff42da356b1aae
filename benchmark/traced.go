package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"upidb"
	"upidb/internal/tuple"
)

// ioSnapshot is the backend wrapper's counters at one instant.
type ioSnapshot struct{ reads, writes, syncs, readBytes, writtenBytes int64 }

func (b *benchBackend) snapshot() ioSnapshot {
	return ioSnapshot{b.reads.Load(), b.writes.Load(), b.syncs.Load(), b.readBytes.Load(), b.writtenBytes.Load()}
}

// tracedRun derives the per-layer numbers that come from the timed
// phase itself: spans (S) and counters read through public API (C).
type tracedRun struct {
	b             *built
	rec           *recorder
	all           []sample
	wall          time.Duration
	before, after *runtime.MemStats
	m0, m1        upidb.MetricsSnapshot
	d0, d1        upidb.DiskStats
	io0, io1      ioSnapshot
}

// kindMetric maps an op kind to the by-kind metric it feeds.
var kindMetric = map[opKind]string{
	opPTQ: "upidb.ptq_p50_ms", opCollect: "upidb.ptq_p50_ms", opTopK: "upidb.topk_p50_ms",
	opSecondary: "upidb.secondary_p50_ms", opLowQT: "upidb.lowqt_p50_ms",
	opCircle: "upidb.circle_p50_ms", opSegment: "upidb.segment_p50_ms",
}

func (t *tracedRun) fill(rep *report, reads, writes []time.Duration) {
	counter := func(name string) float64 { return float64(t.m1.Counters[name] - t.m0.Counters[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	byKind := map[string][]time.Duration{}
	queries, fullScans := float64(len(reads)), 0.0
	var ingested int64
	// Ops and the time they took, with the recorder off and on: one
	// closed-loop client, so the sums are the slices' wall time.
	var count [2]float64
	var took [2]time.Duration
	for _, s := range t.all {
		i := 0
		if s.traced {
			i = 1
		}
		count[i]++
		took[i] += s.lat
		if s.failed {
			continue
		}
		if s.kind.isWrite() {
			continue
		}
		byKind[kindMetric[s.kind]] = append(byKind[kindMetric[s.kind]], s.lat)
		if s.plan == "FullScan" {
			fullScans++
		}
	}
	for name, ds := range byKind {
		rep.layer(name, ms(median(ds)))
	}
	rep.layer("read.p99_ms", ms(quantile(reads, 0.99)))
	if len(writes) > 0 {
		rep.layer("write.p50_ms", ms(median(writes)))
		rep.layer("write.p99_ms", ms(quantile(writes, 0.99)))
	}
	for _, c := range t.b.clients {
		ingested += c.ingested
	}

	// The recorder was on for every other slice of the phase; the spans
	// it holds are the timed phase's and no others.
	tracedWall := took[1].Seconds()
	tot := t.rec.totals()
	busy := func(name string) float64 {
		if s := tot[name]; s != nil {
			return s.total.Seconds() / tracedWall
		}
		return 0
	}
	var syncs []time.Duration
	if s := tot["storage.backend.sync"]; s != nil {
		syncs = s.durs
	}
	rep.layer("storage.sync_p50_us", us(median(syncs)))
	rep.layer("server.handler_busy_ratio", busy("server.handler"))
	rep.layer("server.refusals", counter("upidb_http_overload_refusals_total")+counter("upidb_http_deadline_refusals_total"))
	rep.layer("planner.cache_hit_ratio", ratio(counter("upidb_plan_cache_hits_total"),
		counter("upidb_plan_cache_hits_total")+counter("upidb_plan_cache_misses_total")))
	rep.layer("planner.fullscan_share", ratio(fullScans, queries))
	rep.layer("shard.dispatches_per_query", ratio(counter("upidb_shard_scatters_total"), queries))
	rep.layer("fracture.partitions_per_query", ratio(counter("upidb_scan_partitions_total"), queries))
	rep.layer("fracture.flushes", counter("upidb_fracture_flushes_total"))
	rep.layer("fracture.merges", counter("upidb_fracture_merges_total"))
	mergeS := t.m1.Histograms["upidb_fracture_merge_seconds"].Sum - t.m0.Histograms["upidb_fracture_merge_seconds"].Sum
	rep.layer("fracture.merge_busy_ratio", mergeS/t.wall.Seconds())

	rep.layer("storage.backend_reads_per_query", ratio(float64(t.io1.reads-t.io0.reads), queries))
	rep.layer("storage.backend_read_ratio", busy("storage.backend.read"))
	rep.layer("storage.backend_write_ratio", busy("storage.backend.write"))
	rep.layer("storage.backend_sync_ratio", busy("storage.backend.sync"))
	rep.layer("storage.backend_syncs", float64(t.io1.syncs-t.io0.syncs))
	written := float64(t.io1.writtenBytes - t.io0.writtenBytes)
	rep.layer("storage.backend_write_mb", written/1e6)
	rep.layer("storage.write_amp", ratio(written, float64(ingested)))
	disk := t.d1.Sub(t.d0)
	rep.layer("storage.modeled_s", disk.Elapsed.Seconds())
	rep.layer("storage.modeled_seeks", float64(disk.Seeks))

	rep.layer("runtime.gc_pause_ms", float64(t.after.PauseTotalNs-t.before.PauseTotalNs)/1e6)
	rep.layer("runtime.peak_rss_mb", peakRSSMB(t.after))
	rep.layer("trace.overhead_ratio", ratio(count[1]/took[1].Seconds(), count[0]/took[0].Seconds()))
}

// encodedSize is the user bytes one write op ingests.
func encodedSize(o *op) int64 {
	switch {
	case o.tuple != nil:
		return int64(len(tuple.Encode(o.tuple)))
	case o.obs != nil:
		return int64(len(tuple.EncodeObservation(o.obs)))
	}
	return 0
}

// peakRSSMB reads the process's high-water resident set; where /proc
// is missing it falls back to what the Go runtime obtained from the OS.
func peakRSSMB(m *runtime.MemStats) float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(m.Sys) / (1 << 20)
}

// hostInfo is the fingerprint printed with every report: numbers from
// different hosts are not comparable.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	FSType     string `json:"fs_type"`
}

func hostFingerprint(dir string) hostInfo {
	return hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH, fsType(dir)}
}

// fsType finds the filesystem holding dir from the mount table.
func fsType(dir string) string {
	b, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	abs := dir
	if wd, err := os.Getwd(); err == nil && !strings.HasPrefix(dir, "/") {
		abs = wd + "/" + dir
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if mp := f[1]; strings.HasPrefix(abs+"/", strings.TrimSuffix(mp, "/")+"/") && len(mp) >= len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
