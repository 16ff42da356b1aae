package upidb_test

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (Section 7), plus micro-benchmarks of the
// core operations. Each experiment benchmark runs the corresponding
// internal/bench experiment at a reduced scale and reports the
// headline modeled runtime as a custom metric (modeled_ms), alongside
// the usual wall-clock ns/op of regenerating the experiment.
//
// This file is an external test package (upidb_test): it drives the
// facade as a caller outside the package would.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-scale experiment output (the numbers recorded in
// README.md) comes from cmd/upibench.

import (
	"context"
	"testing"

	upidb "upidb"
	"upidb/internal/bench"
	"upidb/internal/dataset"
	"upidb/internal/pii"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/upi"
)

// benchScale keeps experiment benchmarks fast enough to iterate.
const benchScale = 0.05

func runExperiment(b *testing.B, id string, headlineColumn string) {
	b.Helper()
	var headline float64
	for i := 0; i < b.N; i++ {
		env := bench.NewEnv(bench.Config{Scale: benchScale, Seed: 1})
		exp, err := bench.Run(context.Background(), env, id)
		if err != nil {
			b.Fatal(err)
		}
		col, err := exp.Column(headlineColumn)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, v := range col {
			sum += v
		}
		headline = sum / float64(len(col)) * 1000 // modeled ms
	}
	b.ReportMetric(headline, "modeled_ms")
}

func BenchmarkFig3CutoffRuntime(b *testing.B)   { runExperiment(b, "fig3", "nonsel QT=0.05") }
func BenchmarkFig4Query1(b *testing.B)          { runExperiment(b, "fig4", "UPI") }
func BenchmarkFig5Query2(b *testing.B)          { runExperiment(b, "fig5", "UPI") }
func BenchmarkFig6Query3(b *testing.B)          { runExperiment(b, "fig6", "PII on UPI w/ Tailored Access") }
func BenchmarkFig7Query4(b *testing.B)          { runExperiment(b, "fig7", "Continuous UPI") }
func BenchmarkFig8Query5(b *testing.B)          { runExperiment(b, "fig8", "PII on Continuous UPI") }
func BenchmarkFig9Deterioration(b *testing.B)   { runExperiment(b, "fig9", "Fractured UPI") }
func BenchmarkFig10FracturedModel(b *testing.B) { runExperiment(b, "fig10", "Real") }
func BenchmarkFig11PointerEstimate(b *testing.B) {
	runExperiment(b, "fig11", "Real")
}
func BenchmarkFig12CutoffModel(b *testing.B)  { runExperiment(b, "fig12", "nonsel QT=0.05") }
func BenchmarkTable7Maintenance(b *testing.B) { runExperiment(b, "table7", "Insert [s]") }
func BenchmarkTable8Merging(b *testing.B)     { runExperiment(b, "table8", "Time [s]") }

// Micro-benchmarks of the core operations, at fixed dataset size.

func benchTuples(b *testing.B, n int) []*upidb.Tuple {
	b.Helper()
	cfg := dataset.DefaultDBLPConfig()
	cfg.Authors = n
	cfg.Publications = 1
	d, err := dataset.GenerateDBLP(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return d.Authors
}

func BenchmarkUPIBulkBuild(b *testing.B) {
	tuples := benchTuples(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
		if _, err := upi.BulkBuild(fs, "t", dataset.AttrInstitution,
			[]string{dataset.AttrCountry}, upi.Options{Cutoff: 0.1}, tuples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUPIInsert(b *testing.B) {
	tuples := benchTuples(b, b.N+1)
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	tab, err := upi.BulkBuild(fs, "t", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, upi.Options{Cutoff: 0.1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tab.Insert(tuples[i%len(tuples)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUPIQueryPTQ(b *testing.B) {
	tuples := benchTuples(b, 5000)
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	tab, err := upi.BulkBuild(fs, "t", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, upi.Options{Cutoff: 0.1}, tuples)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tab.Query(context.Background(), dataset.MITInstitution, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUPIQuerySecondaryTailored(b *testing.B) {
	tuples := benchTuples(b, 5000)
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	tab, err := upi.BulkBuild(fs, "t", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, upi.Options{Cutoff: 0.1}, tuples)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tab.QuerySecondary(context.Background(), dataset.AttrCountry, dataset.JapanCountry, 0.3, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPIIQueryPTQ(b *testing.B) {
	tuples := benchTuples(b, 5000)
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	tab, err := pii.BulkBuild(fs, "t", []string{dataset.AttrInstitution}, pii.Options{}, tuples)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.Query(context.Background(), dataset.AttrInstitution, dataset.MITInstitution, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFacadeInsertFlushQuery(b *testing.B) {
	tuples := benchTuples(b, 2000)
	db, err := upidb.Create("")
	if err != nil {
		b.Fatal(err)
	}
	tab, err := db.CreateTable("t", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, upidb.WithCutoff(0.1), upidb.WithBufferTuples(500))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tup := *tuples[i%len(tuples)]
		tup.ID = uint64(i + 1)
		if err := tab.Insert(&tup); err != nil {
			b.Fatal(err)
		}
		if i%100 == 99 {
			if _, err := tab.Run(context.Background(), upidb.PTQ("", dataset.MITInstitution, 0.3)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchResultsTable is a one-partition table of realistic author tuples
// and the query the Results benchmarks drain: every author of the most
// popular institution, a few hundred rows.
func benchResultsTable(b *testing.B) (*upidb.Table, upidb.Query, int) {
	b.Helper()
	tuples := benchTuples(b, 20000)
	db, err := upidb.Create("")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = db.Close() })
	tab, err := db.BulkLoadTable("t", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, tuples, upidb.WithCutoff(0.1))
	if err != nil {
		b.Fatal(err)
	}
	q := upidb.PTQ("", dataset.MITInstitution, 0.1)
	res, err := tab.Run(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	rows := res.Len()
	if rows < 50 {
		b.Fatalf("benchmark query has %d rows", rows)
	}
	return tab, q, rows
}

// benchResults times drain — one Run consumed to the end — and reports
// it per row.
func benchResults(b *testing.B, drain func(*upidb.Results) int) {
	tab, q, rows := benchResultsTable(b)
	run := func() {
		res, err := tab.Run(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		if n := drain(res); n != rows {
			b.Fatalf("drained %d rows, want %d", n, rows)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	b.ReportMetric(testing.AllocsPerRun(5, run)/float64(rows), "allocs/row")
}

// BenchmarkResultsRows drains a query through Results.Rows: IDs and
// confidences, no tuple built.
func BenchmarkResultsRows(b *testing.B) {
	var sink uint64
	benchResults(b, func(res *upidb.Results) int {
		n := 0
		for row, err := range res.Rows() {
			if err != nil {
				b.Fatal(err)
			}
			sink += row.ID
			n++
		}
		return n
	})
	_ = sink
}

// BenchmarkResultsAll drains the same query through Results.All: the
// same stream with every tuple built.
func BenchmarkResultsAll(b *testing.B) {
	var sink uint64
	benchResults(b, func(res *upidb.Results) int {
		n := 0
		for r, err := range res.All() {
			if err != nil {
				b.Fatal(err)
			}
			sink += r.Tuple.ID
			n++
		}
		return n
	})
	_ = sink
}
