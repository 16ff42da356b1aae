// Package ctxcheck enforces the engine's context-propagation
// discipline, established when Run(ctx, Query) was plumbed
// facade→shard→fracture→upi→cupi: cancellation must reach every
// I/O-performing path, so
//
//   - context.Background() / context.TODO() are forbidden outside
//     package main and _test.go files — library code must thread the
//     caller's context, never mint a fresh root that silently detaches
//     a scan from its deadline;
//   - a context.Context parameter must come first, the convention the
//     whole call graph relies on;
//   - exported query-shaped methods (Query*/Scan*/Stream*/Run/
//     *Cursor) on store/table/cursor types must take a context —
//     a query path without one cannot be cancelled or bounded by a
//     deadline at all.
//
// Intentional exceptions carry a //lint:noctx marker with a rationale.
package ctxcheck

import (
	"go/ast"
	"regexp"
	"strings"

	"upidb/internal/lint"
)

// Analyzer is the ctxcheck analyzer.
var Analyzer = &lint.Analyzer{
	Name:    "ctxcheck",
	Doc:     "reports fresh context roots in library code, context parameters not in first position, and query-shaped methods that take no context",
	Aliases: []string{"noctx"},
	Run:     run,
}

// queryShaped matches exported method names that perform query I/O by
// convention.
var queryShaped = regexp.MustCompile(`^(Query|Scan|Stream)[A-Z0-9]|^(Run|Query|Scan|Stream)$|Cursor$`)

// ioReceivers are the receiver-type name fragments the query-shape
// rule applies to.
var ioReceivers = []string{"Store", "Table", "Cursor", "DB"}

func run(pass *lint.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		if !isMain {
			checkFreshRoots(pass, f)
		}
		for _, fd := range lint.FuncsInFile(f) {
			checkCtxPosition(pass, fd)
			if !isMain && !pass.InTestFile(fd.Pos()) {
				checkQueryShape(pass, fd)
			}
		}
	}
	return nil
}

// checkFreshRoots reports context.Background / context.TODO calls in
// non-main packages outside test files.
func checkFreshRoots(pass *lint.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, name := range []string{"Background", "TODO"} {
			if lint.IsPkgFunc(pass.Info, call, "context", name) && !pass.InTestFile(call.Pos()) {
				pass.Reportf(call.Pos(), "context.%s() in library code detaches this path from the caller's cancellation and deadline; accept a context.Context instead", name)
			}
		}
		return true
	})
}

// checkCtxPosition reports a context.Context parameter that is not the
// first parameter.
func checkCtxPosition(pass *lint.Pass, fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	pos := 0
	for _, field := range fd.Type.Params.List {
		tv, ok := pass.Info.Types[field.Type]
		isCtx := ok && lint.IsContextType(tv.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isCtx && pos > 0 {
			pass.Reportf(field.Pos(), "context.Context must be the first parameter of %s", fd.Name.Name)
		}
		pos += n
	}
}

// checkQueryShape reports exported query-shaped methods on store/
// table/cursor types whose first parameter is not a context.
func checkQueryShape(pass *lint.Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || !fd.Name.IsExported() || !queryShaped.MatchString(fd.Name.Name) {
		return
	}
	recv := lint.ReceiverTypeName(fd)
	if !ast.IsExported(recv) {
		return
	}
	match := false
	for _, frag := range ioReceivers {
		if strings.Contains(recv, frag) {
			match = true
			break
		}
	}
	if !match {
		return
	}
	params := fd.Type.Params
	if params != nil && len(params.List) > 0 {
		if tv, ok := pass.Info.Types[params.List[0].Type]; ok && lint.IsContextType(tv.Type) {
			return
		}
	}
	pass.Reportf(fd.Name.Pos(), "%s.%s performs query I/O but takes no context.Context; it cannot be cancelled or bounded by a deadline (document an exception with //lint:noctx)", recv, fd.Name.Name)
}
