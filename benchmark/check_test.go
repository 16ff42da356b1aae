package main

import (
	"context"
	"slices"
	"strings"
	"testing"

	"upidb"
)

// The checker must flag what it exists to flag.

func TestVerifyFlagsBadResults(t *testing.T) {
	base := []row{{1, 0.9}, {2, 0.8}, {3, 0.7}, {4, 0.6}}
	if _, err := verify(slices.Clone(base), base, nil, nil, 0); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	bad := map[string][]row{
		"dropped row":         {{1, 0.9}, {3, 0.7}, {4, 0.6}},
		"swapped pair":        {{1, 0.9}, {3, 0.7}, {2, 0.8}, {4, 0.6}},
		"below-threshold row": {{1, 0.9}, {2, 0.8}, {3, 0.7}, {4, 0.6}, {5, 0.05}},
		"duplicate row":       {{1, 0.9}, {2, 0.8}, {2, 0.8}, {3, 0.7}, {4, 0.6}},
		"altered confidence":  {{1, 0.9}, {2, 0.81}, {3, 0.7}, {4, 0.6}},
	}
	for name, got := range bad {
		if _, err := verify(got, base, nil, nil, 0); err == nil {
			t.Errorf("%s not flagged", name)
		}
	}
	if _, err := verify(base[:2], base, nil, nil, 2); err != nil {
		t.Errorf("exact top-2 rejected: %v", err)
	}
	if _, err := verify([]row{{1, 0.9}, {3, 0.7}}, base, nil, nil, 2); err == nil {
		t.Error("top-2 that skips the second-best row not flagged")
	}
	if _, err := verify(base[:1], base, nil, nil, 2); err == nil {
		t.Error("top-2 a row short with nothing deleted not flagged")
	}
}

// TestVerifyTopKSlack pins the slack given to the engine's known top-k
// defect: rows behind the first k entries may be missing when deleted
// tuples sit among those k, and the answer may be short by that many.
func TestVerifyTopKSlack(t *testing.T) {
	base := []row{{1, 0.9}, {2, 0.8}, {3, 0.7}, {4, 0.6}, {5, 0.5}, {6, 0.4}}
	headDelete := map[uint64]status{1: mustNot}
	for _, c := range []struct {
		name      string
		got       []row
		over      map[uint64]status
		ok, known bool
	}{
		{"correct answer after a head delete", base[1:4], headDelete, true, false},
		{"one short after one head delete", base[1:3], headDelete, true, true},
		{"filled up from behind the head", []row{base[1], base[2], base[4]}, headDelete, true, true},
		{"two short after one head delete", base[1:2], headDelete, false, false},
		{"live row of the head missing", base[2:4], headDelete, false, false},
		{"deleted row returned", base[:3], headDelete, false, false},
		{"short, but the delete is behind the head", base[:2], map[uint64]status{5: mustNot}, false, false},
	} {
		known, err := verify(c.got, base, c.over, nil, 3)
		if (err == nil) != c.ok || (c.ok && known != c.known) {
			t.Errorf("%s: known=%v err=%v, want ok=%v known=%v", c.name, known, err, c.ok, c.known)
		}
	}
}

// TestTopKAfterHeadDelete sends the engine the shape the slack exists
// for — delete a value's best tuple, then ask for its top 3 — through a
// real table. Today the answer is a row short (knownTopKShort) and must
// be accepted as such; once the engine is fixed it is exact, known turns
// false, and the slack in verify can go.
func TestTopKAfterHeadDelete(t *testing.T) {
	ctx := context.Background()
	cfg := runConfig{workload: wlColdPaths, seed: 1, scale: 0.02, dir: t.TempDir()}
	in, err := buildDiscrete(cfg, nil, fullAuthors, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	value := in.discrete.topInst.values[0]
	tr := embedTransport{in.tab}
	do := func(o op) (bool, []row) {
		var res opResult
		stamp := in.chk.begin(&o)
		if err := tr.do(ctx, &o, &res); err != nil {
			t.Fatal(err)
		}
		known, err := in.chk.end(&o, stamp, &res)
		if err != nil {
			t.Fatalf("%v: %v", o.kind, err)
		}
		return known, res.rows
	}
	do(op{kind: opDelete, id: in.discrete.byInst[value][0].id})
	known, rows := do(op{kind: opTopK, value: value, k: 3})
	t.Logf("top-3 after deleting the best tuple: %d rows, known defect hit: %v", len(rows), known)
	if known != (len(rows) < 3) {
		t.Errorf("known = %v for a top-3 of %d rows", known, len(rows))
	}
}

func TestCheckerFlagsResurrectedDelete(t *testing.T) {
	d, err := genDiscrete(datasetSeed, 500)
	if err != nil {
		t.Fatal(err)
	}
	c := newDiscreteChecker(d)
	value := d.topInst.values[0]
	full := ptqPrefix(d.byInst[value], 0.1)
	victim := full[0].id

	del := op{kind: opDelete, id: victim}
	stamp := c.begin(&del)
	if _, err := c.end(&del, stamp, &opResult{}); err != nil {
		t.Fatal(err)
	}
	q := op{kind: opPTQ, value: value, qt: 0.1}
	stamp = c.begin(&q)
	if _, err := c.end(&q, stamp, &opResult{rows: slices.Clone(full)}); err == nil {
		t.Error("a row deleted and acknowledged before the query began was accepted")
	}
	stamp = c.begin(&q)
	if _, err := c.end(&q, stamp, &opResult{rows: slices.Clone(full[1:])}); err != nil {
		t.Errorf("answer without the deleted row rejected: %v", err)
	}

	ins := op{kind: opInsert, tuple: d.freshTuple(int(victim) - 1)} // same distributions as the victim
	stamp = c.begin(&ins)
	if _, err := c.end(&ins, stamp, &opResult{}); err != nil {
		t.Fatal(err)
	}
	stamp = c.begin(&q)
	if _, err := c.end(&q, stamp, &opResult{rows: slices.Clone(full[1:])}); err == nil {
		t.Error("an answer missing an acknowledged insert was accepted")
	}
}

// TestEpilogueFlagsLostInsert builds the mixed workload's table without
// its write-ahead log: the live table serves an acknowledged insert from
// RAM, a reopen after the simulated death cannot, and the run must fail.
func TestEpilogueFlagsLostInsert(t *testing.T) {
	ctx := context.Background()
	for _, durable := range []bool{true, false} {
		cfg := runConfig{workload: wlMixed, seed: 3, scale: 0.005, dir: t.TempDir()}
		in, err := buildDiscrete(cfg, nil, fullAuthors, 2, 0, false, upidb.WithDurability(durable))
		if err != nil {
			t.Fatal(err)
		}
		tr := embedTransport{in.tab}
		for j := 0; j < 5; j++ {
			o := op{kind: opInsert, tuple: in.discrete.freshTuple(j)}
			stamp := in.chk.begin(&o)
			if err := tr.do(ctx, &o, &opResult{}); err != nil {
				t.Fatal(err)
			}
			if _, err := in.chk.end(&o, stamp, &opResult{}); err != nil {
				t.Fatal(err)
			}
		}
		rep := &report{Workload: wlMixed, PerLayer: map[string]float64{}}
		err = mixedEpilogue(ctx, in, rep)
		switch {
		case durable && err != nil:
			t.Errorf("durable table: %v", err)
		case !durable && (err == nil || !strings.Contains(err.Error(), "durability")):
			t.Errorf("table without a WAL lost acknowledged inserts on reopen, epilogue said: %v", err)
		}
		if err := in.close(); err != nil && durable {
			t.Log(err)
		}
	}
}
