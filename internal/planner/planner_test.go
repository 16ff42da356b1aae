package planner

import (
	"context"
	"errors"
	"strings"
	"testing"

	"upidb/internal/dataset"
	"upidb/internal/fracture"
	"upidb/internal/histogram"
	"upidb/internal/sim"
	"upidb/internal/storage"
	"upidb/internal/upi"
)

func testPlanner(t *testing.T) (*Planner, *fracture.Store, *dataset.DBLP) {
	t.Helper()
	cfg := dataset.DefaultDBLPConfig().Scaled(0.05)
	d, err := dataset.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := storage.NewFS(sim.NewDisk(sim.DefaultParams()))
	store, err := fracture.BulkLoad(fs, "authors", dataset.AttrInstitution,
		[]string{dataset.AttrCountry}, fracture.Config{UPI: upi.Options{Cutoff: 0.1}}, d.Authors)
	if err != nil {
		t.Fatal(err)
	}
	instHist, err := histogram.Build(dataset.AttrInstitution, d.Authors)
	if err != nil {
		t.Fatal(err)
	}
	countryHist, err := histogram.Build(dataset.AttrCountry, d.Authors)
	if err != nil {
		t.Fatal(err)
	}
	p := New(store, StaticStats{
		dataset.AttrInstitution: instHist,
		dataset.AttrCountry:     countryHist,
	}, sim.DefaultParams())
	return p, store, d
}

func TestMissingHistogramIsErrNoStats(t *testing.T) {
	_, store, d := testPlanner(t)
	countryHist, _ := histogram.Build(dataset.AttrCountry, d.Authors)
	p := New(store, StaticStats{dataset.AttrCountry: countryHist}, sim.DefaultParams())
	if _, err := p.PlanPTQ(dataset.AttrInstitution, dataset.MITInstitution, 0.3); !errors.Is(err, ErrNoStats) {
		t.Fatalf("uncovered primary attribute: %v", err)
	}
	if _, err := p.PlanPTQ(dataset.AttrCountry, dataset.JapanCountry, 0.3); err != nil {
		t.Fatalf("covered secondary attribute: %v", err)
	}
}

func TestPrimaryPlanBeatsFullScanWhenSelective(t *testing.T) {
	p, _, _ := testPlanner(t)
	plans, err := p.PlanPTQ(dataset.AttrInstitution, dataset.MITInstitution, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("plans: %+v", plans)
	}
	if plans[0].Kind != PrimaryScan {
		t.Fatalf("expected PrimaryScan to win: %s", Explain(plans))
	}
	if plans[0].EstimatedCost >= plans[1].EstimatedCost {
		t.Fatal("plans not sorted by cost")
	}
	if plans[0].EstimatedRows <= 0 {
		t.Fatal("row estimate missing")
	}
}

func TestSecondaryPlanAvailable(t *testing.T) {
	p, _, _ := testPlanner(t)
	plans, err := p.PlanPTQ(dataset.AttrCountry, dataset.JapanCountry, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []PlanKind
	for _, pl := range plans {
		kinds = append(kinds, pl.Kind)
	}
	if len(plans) != 2 || (kinds[0] != SecondaryTailored && kinds[1] != SecondaryTailored) {
		t.Fatalf("expected a secondary plan: %s", Explain(plans))
	}
}

func TestUnknownAttribute(t *testing.T) {
	p, _, _ := testPlanner(t)
	if _, err := p.PlanPTQ("Nope", "x", 0.1); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestExecuteMatchesDirectQuery(t *testing.T) {
	p, store, _ := testPlanner(t)
	// run executes the cheapest plan the way the facade does: PlanReq,
	// then the store runs the descriptor.
	run := func(attr, value string, qt float64) ([]upi.Result, Plan) {
		t.Helper()
		plans, err := p.PlanPTQ(attr, value, qt)
		if err != nil {
			t.Fatal(err)
		}
		req, err := PlanReq(plans[0], value, qt)
		if err != nil {
			t.Fatal(err)
		}
		rs, _, err := store.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return rs, plans[0]
	}
	rs, plan := run(dataset.AttrInstitution, dataset.MITInstitution, 0.3)
	direct, _, err := store.Query(context.Background(), dataset.MITInstitution, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(direct) {
		t.Fatalf("planner answer %d != direct %d (plan %v)", len(rs), len(direct), plan.Kind)
	}
	// Secondary attribute execution also agrees.
	rs, _ = run(dataset.AttrCountry, dataset.JapanCountry, 0.3)
	directSec, _, err := store.QuerySecondary(context.Background(), dataset.AttrCountry, dataset.JapanCountry, 0.3, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(directSec) {
		t.Fatalf("secondary: %d != %d", len(rs), len(directSec))
	}
}

func TestExplainFormat(t *testing.T) {
	p, _, _ := testPlanner(t)
	plans, err := p.PlanPTQ(dataset.AttrInstitution, dataset.MITInstitution, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s := Explain(plans)
	if !strings.HasPrefix(s, "*") || !strings.Contains(s, "cost=") {
		t.Fatalf("explain output: %q", s)
	}
}

// TestPlannerTracksFractures: adding fractures raises every plan's
// cost via the Nfrac term.
func TestPlannerTracksFractures(t *testing.T) {
	p, store, d := testPlanner(t)
	before, err := p.PlanPTQ(dataset.AttrInstitution, dataset.MITInstitution, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tup := *d.Authors[i]
		tup.ID = uint64(900000 + i)
		if err := store.Insert(&tup); err != nil {
			t.Fatal(err)
		}
		if err := store.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := p.PlanPTQ(dataset.AttrInstitution, dataset.MITInstitution, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if after[0].EstimatedCost <= before[0].EstimatedCost {
		t.Fatalf("fractures should raise cost: %v -> %v", before[0].EstimatedCost, after[0].EstimatedCost)
	}
}

// TestCutoffCrossoverChangesPlanCost: for QT below the cutoff, the
// primary plan's estimate includes the saturation term and exceeds the
// same query above the cutoff.
func TestCutoffCrossoverChangesPlanCost(t *testing.T) {
	p, _, _ := testPlanner(t)
	below, err := p.PlanPTQ(dataset.AttrInstitution, dataset.MITInstitution, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	above, err := p.PlanPTQ(dataset.AttrInstitution, dataset.MITInstitution, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	costOf := func(plans []Plan, k PlanKind) (c int64) {
		for _, pl := range plans {
			if pl.Kind == k {
				return int64(pl.EstimatedCost)
			}
		}
		t.Fatalf("no %v plan", k)
		return 0
	}
	if costOf(below, PrimaryScan) <= costOf(above, PrimaryScan) {
		t.Fatal("QT below cutoff should cost more than above")
	}
}
