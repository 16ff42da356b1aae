// Package lint is a self-contained static-analysis framework in the
// spirit of golang.org/x/tools/go/analysis, built entirely on the
// standard library so the repository carries no third-party
// dependency. It exists to encode the engine's load-bearing invariants
// — the cupi locking discipline, errors.Is against the typed
// sentinels, context propagation —
// as compile-time checks instead of reviewer memory.
//
// An Analyzer inspects one type-checked package at a time through a
// Pass and reports Diagnostics. The cmd/upilint driver loads packages
// (see Load), runs every registered analyzer, and exits non-zero when
// any diagnostic survives suppression.
//
// # Suppression markers
//
// A diagnostic is suppressed by a targeted marker comment, never by a
// blanket flag:
//
//	t.mu.RLock() //lint:lockheld cursor holds the read lock until Close
//
// A marker names the analyzer whose diagnostics it silences (the
// analyzer's Name, or a documented alias such as lockheld for
// lockcheck). It applies to the line it trails, or — when written in a
// function's doc comment — to the whole function. Markers carry a
// rationale after the name; an empty rationale is itself a diagnostic,
// so every suppression is documented at the site.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and markers. Lower
	// case, no spaces.
	Name string

	// Doc is a one-paragraph description: what the analyzer enforces
	// and why the invariant exists.
	Doc string

	// Aliases are additional marker names that suppress this
	// analyzer's diagnostics (e.g. lockcheck honors //lint:lockheld).
	Aliases []string

	// Run inspects one package and reports diagnostics via pass.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding, already resolved to a position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	markers   markerIndex
	collected *[]Diagnostic
}

// NewPass assembles a Pass over an already type-checked package,
// appending diagnostics to out. Exposed for the linttest fixture
// runner; the driver uses Run.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, out *[]Diagnostic) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		Info:      info,
		markers:   indexMarkers(fset, files),
		collected: out,
	}
}

// Reportf records a diagnostic at pos unless a targeted marker
// suppresses this analyzer there.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(position) {
		return
	}
	*p.collected = append(*p.collected, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos falls in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

func (p *Pass) suppressed(pos token.Position) bool {
	names := append([]string{p.Analyzer.Name}, p.Analyzer.Aliases...)
	for _, n := range names {
		if p.markers.suppresses(n, pos) {
			return true
		}
	}
	return false
}

// markerRe matches one //lint:<name> marker. The rationale after the
// name is free text.
var markerRe = regexp.MustCompile(`//lint:([a-z][a-z0-9-]*)`)

type lineKey struct {
	file string
	line int
}

type funcRange struct {
	file       string
	start, end int // line range of the declaration incl. body
	names      []string
}

type markerIndex struct {
	byLine map[lineKey][]string
	byFunc []funcRange
}

// indexMarkers collects //lint: markers: trailing-comment markers by
// line, and doc-comment markers by the function they document.
func indexMarkers(fset *token.FileSet, files []*ast.File) markerIndex {
	idx := markerIndex{byLine: make(map[lineKey][]string)}
	for _, f := range files {
		fname := fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range markerRe.FindAllStringSubmatch(c.Text, -1) {
					k := lineKey{fname, fset.Position(c.Pos()).Line}
					idx.byLine[k] = append(idx.byLine[k], m[1])
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			var names []string
			for _, c := range fd.Doc.List {
				for _, m := range markerRe.FindAllStringSubmatch(c.Text, -1) {
					names = append(names, m[1])
				}
			}
			if len(names) > 0 {
				idx.byFunc = append(idx.byFunc, funcRange{
					file:  fname,
					start: fset.Position(fd.Pos()).Line,
					end:   fset.Position(fd.End()).Line,
					names: names,
				})
			}
		}
	}
	return idx
}

func (idx markerIndex) suppresses(name string, pos token.Position) bool {
	for _, n := range idx.byLine[lineKey{pos.Filename, pos.Line}] {
		if n == name {
			return true
		}
	}
	for _, fr := range idx.byFunc {
		if fr.file == pos.Filename && pos.Line >= fr.start && pos.Line <= fr.end {
			for _, n := range fr.names {
				if n == name {
					return true
				}
			}
		}
	}
	return false
}

// Run applies every analyzer to every package and returns the
// surviving diagnostics sorted by position. Diagnostics are
// deduplicated by (analyzer, position, message) so a file linted both
// as part of a package and its test variant reports once.
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, &diags)
			if err := a.Run(pass); err != nil {
				diags = append(diags, Diagnostic{
					Analyzer: a.Name,
					Pos:      token.Position{Filename: pkg.PkgPath},
					Message:  fmt.Sprintf("analyzer failed: %v", err),
				})
			}
		}
	}
	seen := make(map[string]bool, len(diags))
	out := diags[:0]
	for _, d := range diags {
		k := d.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Pos.Column != out[j].Pos.Column {
			return out[i].Pos.Column < out[j].Pos.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}
