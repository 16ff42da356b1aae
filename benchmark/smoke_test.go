package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractFile fails when BENCHMARK.json and the binary drift apart,
// or the contract leaves the limits the driver enforces.
func TestContractFile(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var listed bytes.Buffer
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := realMain([]string{"-list"})
	os.Stdout = old
	w.Close()
	if _, err := listed.ReadFrom(r); err != nil || code != 0 {
		t.Fatalf("-list: exit %d, %v", code, err)
	}
	if !bytes.Equal(bytes.TrimSpace(file), bytes.TrimSpace(listed.Bytes())) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -list`; regenerate it")
	}

	s := spec()
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range s.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v outside the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s missing")
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range s.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v outside the contract", m)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
}

// TestSmoke runs every workload at 1/50 scale, untraced and traced, and
// requires no failed op and every declared metric exactly once, finite,
// and measured on exactly the workloads it is declared for.
func TestSmoke(t *testing.T) {
	for _, w := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				t.Parallel() // the runs mostly wait for fsync
				smoke(t, w, traced)
			})
		}
	}
}

func smoke(t *testing.T, w workloadSpec, traced bool) {
	cfg := runConfig{workload: w.Name, seed: 7, seconds: 0.1, trace: traced, scale: 0.02, dir: t.TempDir()}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("%d of %d ops failed: %v", rep.Failed, rep.Attempted, rep.Errors)
	}
	if w.Name == wlMixed && (rep.Samples["delete"] == 0 || rep.Samples["insert"] == 0) {
		t.Errorf("no delete or no insert reached the engine: %v", rep.Samples)
	}
	// want: name -> unit and whether this workload must have measured it.
	type decl struct {
		unit     string
		measured bool
	}
	want, measured := map[string]decl{}, rep.EndToEnd
	for _, m := range endToEndSpecs {
		want[m.Name] = decl{m.Unit, true}
	}
	if traced {
		want, measured = map[string]decl{}, rep.PerLayer
		for _, m := range perLayerSpecs {
			want[m.Name] = decl{m.Unit, m.on.holds(w.Name)}
		}
	}
	line := rep.line()
	if len(line.Metrics) != len(want) {
		t.Errorf("result line has %d metrics, contract names %d", len(line.Metrics), len(want))
	}
	for name, d := range want {
		got, ok := line.Metrics[name]
		if !ok {
			t.Errorf("metric %s not in the result line", name)
			continue
		}
		if _, was := measured[name]; was != d.measured {
			t.Errorf("metric %s measured: %v, declared for %s: %v", name, was, w.Name, d.measured)
		}
		if got.Unit != d.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("metric %s = %v %s", name, got.Value, got.Unit)
		}
		if !traced && got.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", name, got.Value)
		}
	}
	for name := range measured {
		if _, ok := want[name]; !ok {
			t.Errorf("measured %s, which the contract does not name", name)
		}
	}
}
