// Package bench regenerates every table and figure of the paper's
// evaluation (Section 7). Each experiment builds its tables on a
// private simulated disk, runs the paper's queries cold-cache, and
// reports modeled runtimes — deterministic, hardware-independent
// reproductions of the published series (see the repository README.md
// for the experiment index).
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"upidb/internal/dataset"
	"upidb/internal/sim"
)

// Config scales the experiments.
type Config struct {
	// Scale multiplies the default dataset sizes (1.0 ≈ 70k authors,
	// 130k publications, 150k observations — a 10× reduction of the
	// paper's datasets).
	Scale float64
	// Seed drives all dataset generation.
	Seed int64
}

// DefaultConfig returns the full-scale configuration.
func DefaultConfig() Config { return Config{Scale: 1.0, Seed: 1} }

// Env lazily generates and caches the datasets shared by experiments.
type Env struct {
	cfg    Config
	dblp   *dataset.DBLP
	cartel *dataset.Cartel
}

// NewEnv creates an experiment environment.
func NewEnv(cfg Config) *Env {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	return &Env{cfg: cfg}
}

// Config returns the environment's configuration.
func (e *Env) Config() Config { return e.cfg }

// DBLP returns the (cached) uncertain-DBLP-like dataset.
func (e *Env) DBLP() (*dataset.DBLP, error) {
	if e.dblp == nil {
		cfg := dataset.DefaultDBLPConfig().Scaled(e.cfg.Scale)
		cfg.Seed = e.cfg.Seed
		d, err := dataset.GenerateDBLP(cfg)
		if err != nil {
			return nil, err
		}
		e.dblp = d
	}
	return e.dblp, nil
}

// Cartel returns the (cached) Cartel-like dataset.
func (e *Env) Cartel() (*dataset.Cartel, error) {
	if e.cartel == nil {
		cfg := dataset.DefaultCartelConfig().Scaled(e.cfg.Scale)
		cfg.Seed = e.cfg.Seed + 1
		c, err := dataset.GenerateCartel(cfg)
		if err != nil {
			return nil, err
		}
		e.cartel = c
	}
	return e.cartel, nil
}

// Row is one data point of an experiment: an x value (or a label for
// table-style experiments) and one value per column.
type Row struct {
	X      float64
	Label  string
	Values []float64
}

// Experiment is one regenerated table or figure.
type Experiment struct {
	ID      string // "fig4", "table7", ...
	Title   string
	XLabel  string
	Columns []string
	Rows    []Row
	Notes   string
}

// String renders the experiment as an aligned text table. Values are
// printed as given (the harness reports seconds for runtimes).
func (e *Experiment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", e.ID, e.Title)
	if e.Notes != "" {
		fmt.Fprintf(&b, "   %s\n", e.Notes)
	}
	header := make([]string, 0, len(e.Columns)+1)
	header = append(header, e.XLabel)
	header = append(header, e.Columns...)
	rows := make([][]string, 0, len(e.Rows)+1)
	rows = append(rows, header)
	for _, r := range e.Rows {
		cells := make([]string, 0, len(r.Values)+1)
		if r.Label != "" {
			cells = append(cells, r.Label)
		} else {
			cells = append(cells, trimFloat(r.X))
		}
		for _, v := range r.Values {
			cells = append(cells, trimFloat(v))
		}
		rows = append(rows, cells)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, row := range rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Column returns the series of one column, in row order.
func (e *Experiment) Column(name string) ([]float64, error) {
	idx := -1
	for i, c := range e.Columns {
		if c == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("bench: no column %q in %s", name, e.ID)
	}
	out := make([]float64, len(e.Rows))
	for i, r := range e.Rows {
		if idx >= len(r.Values) {
			return nil, fmt.Errorf("bench: row %d of %s lacks column %d", i, e.ID, idx)
		}
		out[i] = r.Values[idx]
	}
	return out, nil
}

// seconds converts a modeled duration to float seconds for reporting.
func seconds(d time.Duration) float64 { return d.Seconds() }

// coldRun drops the given caches, then measures the modeled disk time
// of run.
func coldRun(disk *sim.Disk, drop func() error, run func() error) (time.Duration, error) {
	if err := drop(); err != nil {
		return 0, err
	}
	sp := sim.StartSpan(disk)
	if err := run(); err != nil {
		return 0, err
	}
	return sp.End().Elapsed, nil
}

// RunFunc produces one experiment.
type RunFunc func(context.Context, *Env) (*Experiment, error)

// Registered lists every experiment in paper order.
func Registered() []struct {
	ID  string
	Run RunFunc
} {
	return []struct {
		ID  string
		Run RunFunc
	}{
		{"fig3", Fig3CutoffRuntime},
		{"fig4", Fig4Query1},
		{"fig5", Fig5Query2},
		{"fig6", Fig6Query3},
		{"fig7", Fig7Query4},
		{"fig8", Fig8Query5},
		{"fig9", Fig9Deterioration},
		{"fig10", Fig10FracturedModel},
		{"fig11", Fig11PointerEstimate},
		{"fig12", Fig12CutoffModel},
		{"table7", Table7Maintenance},
		{"table8", Table8Merging},
		{"streaming-latency", StreamingLatency},
		{"ablation-pointers", AblationMaxPointers},
		{"ablation-size", AblationCutoffSize},
	}
}

// Run executes one experiment by ID.
func Run(ctx context.Context, env *Env, id string) (*Experiment, error) {
	for _, r := range Registered() {
		if r.ID == id {
			return r.Run(ctx, env)
		}
	}
	ids := make([]string, 0)
	for _, r := range Registered() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}
