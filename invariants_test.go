package upidb

// TestEngineInvariants parses every Go file of the module and checks
// six rules from syntax alone (README.md "Static analysis" gives the
// reason for each):
//
//	freshroot   no context.Background/TODO outside package main and tests
//	ctxfirst    a context.Context parameter comes first
//	queryctx    exported Query*/Scan*/Stream*/Run/*Cursor methods on
//	            exported Store/Table/Cursor/DB types take a context first
//	errcompare  no ==/!= between a non-nil operand and an error
//	errwrap     fmt.Errorf does not print an error with %v or %s
//	lockpair    every Lock/RLock is released on every path of its scope
//
// Operands count as errors by name (err, errX, ErrX, xErr, EOF, .Err())
// and locks by method name, so a concretely typed error with another
// name goes unseen, and a Lock method on a non-sync type counts as a
// lock.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// invariantSite is where a finding is: its rule, its file (slash
// separated, relative to the module root) and its function
// ("Recv.Method" for a method).
type invariantSite struct{ rule, file, fn string }

// invariantExceptions are the findings the module keeps on purpose,
// each with its reason. An entry that matches no finding fails the
// test, so the map lists exactly the exceptions in force.
var invariantExceptions = map[invariantSite]string{
	{"queryctx", "internal/upi/query.go", "Table.ScanHeap"}: "callers thread cancellation through fn: fracture merges and ScanCursor check their context in their callbacks",
}

type invariantFinding struct {
	invariantSite
	pos token.Position
	msg string
}

func TestEngineInvariants(t *testing.T) {
	t.Run("module", func(t *testing.T) {
		used := map[invariantSite]bool{}
		err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, fd := range checkInvariants(fset, f, filepath.ToSlash(path)) {
				if _, ok := invariantExceptions[fd.invariantSite]; ok {
					used[fd.invariantSite] = true
				} else {
					t.Errorf("%s: %s: %s", fd.pos, fd.rule, fd.msg)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for site, reason := range invariantExceptions {
			if !used[site] {
				t.Errorf("exception %+v (%s) matches no finding; delete it", site, reason)
			}
		}
	})

	// Each fixture line ending in "// want <text>" must produce one
	// finding whose "rule: message" contains <text>; no other line may
	// produce any.
	t.Run("fixtures", func(t *testing.T) {
		for family, files := range invariantFixtures {
			t.Run(family, func(t *testing.T) {
				for name, src := range files {
					t.Run(name, func(t *testing.T) { checkInvariantFixture(t, name, src) })
				}
			})
		}
	})
}

// checkInvariantFixture checks one fixture file against its wants.
func checkInvariantFixture(t *testing.T, name, src string) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[int]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if want, ok := strings.CutPrefix(c.Text, "// want "); ok {
				wants[fset.Position(c.Pos()).Line] = want
			}
		}
	}
	for _, fd := range checkInvariants(fset, f, name) {
		got := fd.rule + ": " + fd.msg
		if want, ok := wants[fd.pos.Line]; !ok || !strings.Contains(got, want) {
			t.Errorf("%s: unexpected %s", fd.pos, got)
			continue
		}
		delete(wants, fd.pos.Line)
	}
	for line, want := range wants {
		t.Errorf("%s:%d: no finding %q", name, line, want)
	}
}

// invariantChecker collects the findings of one file.
type invariantChecker struct {
	fset *token.FileSet
	file string
	lib  bool   // neither package main nor a _test.go file
	fn   string // the function being checked
	out  []invariantFinding
}

func checkInvariants(fset *token.FileSet, f *ast.File, file string) []invariantFinding {
	c := &invariantChecker{fset: fset, file: file, lib: f.Name.Name != "main" && !strings.HasSuffix(file, "_test.go")}
	for _, d := range f.Decls {
		c.fn = ""
		if fd, ok := d.(*ast.FuncDecl); ok {
			c.fn = fd.Name.Name
			if recv := receiverName(fd); recv != "" {
				c.fn = recv + "." + c.fn
			}
			c.checkSignature(fd)
			if fd.Body != nil {
				c.checkLocks(fd.Body)
			}
		}
		ast.Inspect(d, c.checkNode)
	}
	return c.out
}

func (c *invariantChecker) report(rule string, pos token.Pos, format string, args ...any) {
	c.out = append(c.out, invariantFinding{
		invariantSite: invariantSite{rule, c.file, c.fn},
		pos:           c.fset.Position(pos),
		msg:           fmt.Sprintf(format, args...),
	})
}

var (
	queryShaped = regexp.MustCompile(`^(Query|Scan|Stream)[A-Z0-9]|^(Run|Query|Scan|Stream)$|Cursor$`)
	ioReceiver  = regexp.MustCompile(`Store|Table|Cursor|DB`)
	errorName   = regexp.MustCompile(`^(err|err[A-Z0-9]\w*|Err[A-Z]\w*|\w+Err|EOF)$`)
)

// checkSignature applies ctxfirst and queryctx to a declaration.
func (c *invariantChecker) checkSignature(fd *ast.FuncDecl) {
	params := fd.Type.Params.List
	n := 0
	for _, field := range params {
		if n > 0 && isPkgSel(field.Type, "context", "Context") {
			c.report("ctxfirst", field.Pos(), "context.Context must be the first parameter of %s", fd.Name.Name)
		}
		n += max(len(field.Names), 1)
	}
	recv := receiverName(fd)
	if !c.lib || !ast.IsExported(recv) || !fd.Name.IsExported() ||
		!queryShaped.MatchString(fd.Name.Name) || !ioReceiver.MatchString(recv) {
		return
	}
	if len(params) == 0 || !isPkgSel(params[0].Type, "context", "Context") {
		c.report("queryctx", fd.Name.Pos(), "%s.%s performs query I/O but takes no context.Context", recv, fd.Name.Name)
	}
}

// checkNode applies freshroot, errcompare and errwrap to one node.
func (c *invariantChecker) checkNode(n ast.Node) bool {
	switch e := n.(type) {
	case *ast.CallExpr:
		for _, root := range []string{"Background", "TODO"} {
			if c.lib && isPkgSel(e.Fun, "context", root) {
				c.report("freshroot", e.Pos(), "context.%s() in library code detaches this path from the caller's cancellation and deadline", root)
			}
		}
		if isPkgSel(e.Fun, "fmt", "Errorf") {
			c.checkErrorf(e)
		}
	case *ast.BinaryExpr:
		if (e.Op == token.EQL || e.Op == token.NEQ) && !isNilIdent(e.X) && !isNilIdent(e.Y) &&
			(errorLike(e.X) || errorLike(e.Y)) {
			c.report("errcompare", e.OpPos, "error compared with %s; use errors.Is so wrapped sentinels still match", e.Op)
		}
	}
	return true
}

// checkErrorf reports an error-like argument printed with %v or %s by
// a literal format. Indexed and star verbs are not mapped to arguments.
func (c *invariantChecker) checkErrorf(call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) && strings.IndexByte("+-# 0123456789.", format[i]) >= 0 {
			i++
		}
		if i >= len(format) {
			break
		}
		switch format[i] {
		case '%':
			continue
		case '*', '[':
			return
		}
		verbs = append(verbs, format[i])
	}
	for i, v := range verbs {
		if i+1 < len(call.Args) && (v == 'v' || v == 's') && errorLike(call.Args[i+1]) {
			c.report("errwrap", call.Args[i+1].Pos(), "error formatted with %%%c loses the error chain; wrap with %%w", v)
		}
	}
}

// lockKey is one mutex in one mode: a write and a read lock of the same
// mutex pair independently.
type lockKey struct {
	expr  string
	write bool
}

// checkLocks applies lockpair to one function scope. Function literals
// are scopes of their own, except deferred ones, whose unlocks count
// as deferred releases of this scope.
func (c *invariantChecker) checkLocks(body *ast.BlockStmt) {
	held := map[lockKey]int{}
	deferred := map[lockKey]bool{}
	var nested []*ast.BlockStmt
	leaks := func(pos token.Pos, where string) {
		for k, n := range held {
			if n > 0 && !deferred[k] {
				lock, unlock := "Lock", "Unlock"
				if !k.write {
					lock, unlock = "RLock", "RUnlock"
				}
				c.report("lockpair", pos, "%s leaves %s.%s() held with no deferred %s", where, k.expr, lock, unlock)
			}
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			nested = append(nested, s.Body)
			return false
		case *ast.DeferStmt:
			ast.Inspect(s.Call, func(n ast.Node) bool {
				if k, acquire, ok := c.lockCall(n); ok && !acquire {
					deferred[k] = true
				}
				return true
			})
			return false
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				ast.Inspect(r, visit)
			}
			leaks(s.Pos(), "return")
			return false
		}
		if k, acquire, ok := c.lockCall(n); ok {
			switch {
			case acquire:
				held[k]++
			case held[k] > 0:
				held[k]--
			}
		}
		return true
	}
	ast.Inspect(body, visit)
	if n := len(body.List); n == 0 || !isReturn(body.List[n-1]) {
		leaks(body.Rbrace, "function exit")
	}
	for _, b := range nested {
		c.checkLocks(b)
	}
}

// lockCall recognises x.Lock(), x.RLock(), x.Unlock() and x.RUnlock().
func (c *invariantChecker) lockCall(n ast.Node) (lockKey, bool, bool) {
	call, isCall := n.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return lockKey{}, false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return lockKey{}, false, false
	}
	var write, acquire bool
	switch sel.Sel.Name {
	case "Lock":
		write, acquire = true, true
	case "Unlock":
		write = true
	case "RLock":
		acquire = true
	case "RUnlock":
	default:
		return lockKey{}, false, false
	}
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, c.fset, sel.X) // a bytes.Buffer write cannot fail
	return lockKey{buf.String(), write}, acquire, true
}

func isReturn(s ast.Stmt) bool {
	_, ok := s.(*ast.ReturnStmt)
	return ok
}

// errorLike reports whether e is named like an error.
func errorLike(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return errorName.MatchString(x.Name)
	case *ast.SelectorExpr:
		return errorName.MatchString(x.Sel.Name)
	case *ast.CallExpr:
		sel, ok := x.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Err" && len(x.Args) == 0
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// isPkgSel reports whether e is the selector pkg.name.
func isPkgSel(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// receiverName is a method's receiver type name, "" for a function.
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// invariantFixtures are the rules' cases, by rule family and file
// name: each firing line carries its want, and every other case must
// stay silent.
var invariantFixtures = map[string]map[string]string{
	"locks": {"lockpair.go": `package a

type table struct {
	mu     sync.RWMutex
	closed bool
	n      int
}

func (t *table) earlyReturnLeak() error {
	t.mu.Lock()
	if t.closed {
		return errClosed // want lockpair: return leaves t.mu.Lock() held
	}
	t.mu.Unlock()
	return nil
}

func (t *table) neverUnlocked() {
	t.mu.RLock()
	t.n++
} // want lockpair: function exit leaves t.mu.RLock() held

func (t *table) deferredIsClean() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errClosed
	}
	return nil
}

func (t *table) deferredClosureIsClean() {
	t.mu.Lock()
	defer func() {
		t.n = 0
		t.mu.Unlock()
	}()
	t.n++
}

// Unlocking before each return, in source order, is accepted.
func (t *table) manualBalanced() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errClosed
	}
	t.mu.Unlock()
	return nil
}

// An Unlock does not release an RLock.
func (t *table) modesPairIndependently() {
	t.mu.RLock()
	t.mu.Unlock()
} // want lockpair: function exit leaves t.mu.RLock() held

// A clean closure hides neither its scope's leak nor its own checks.
func (t *table) closureScopesAreIndependent() func() {
	t.mu.Lock()
	f := func() {
		t.mu.RLock()
		defer t.mu.RUnlock()
		t.n++
	}
	return f // want lockpair: return leaves t.mu.Lock() held
}

func (t *table) lockInClosureLeaks() func() {
	return func() {
		t.mu.Lock()
		t.n++
	} // want lockpair: function exit leaves t.mu.Lock() held
}
`},
	"errors": {"errors.go": `package a

func compare(err error) {
	if err == errSentinel { // want errcompare: error compared with ==
		return
	}
	if err != io.EOF { // want errcompare: error compared with !=
		return
	}
	if errSentinel == err { // want errcompare: error compared with ==
		return
	}
	if err == nil || err != nil || errors.Is(err, errSentinel) {
		return
	}
}

// Comparing concrete pointers is deliberate identity comparison.
func concreteIdentity(a, b *codedErr) bool {
	return a == b
}

func wrap(err error) error {
	return fmt.Errorf("query failed: %v", err) // want errwrap: error formatted with %v loses the error chain
}

func wrapS(err error) error {
	return fmt.Errorf("query failed: %s", err) // want errwrap: error formatted with %s loses the error chain
}

func wrapW(err error) error {
	return fmt.Errorf("query failed: %w", err)
}

func wrapString(err error) error {
	return fmt.Errorf("query failed: %s", err.Error())
}

func mixed(err error, n int) error {
	return fmt.Errorf("shard %d: %v", n, err) // want errwrap: error formatted with %v loses the error chain
}

// Indexed formats are not mapped to arguments: no finding, not a guess.
func indexed(err error) error {
	return fmt.Errorf("%[1]v", err)
}
`},
	"context": {"context.go": `package a

func freshRoot() {
	ctx := context.Background() // want freshroot: context.Background() in library code
	_ = ctx
}

func freshTODO() {
	_ = context.TODO() // want freshroot: context.TODO() in library code
}

func threaded(ctx context.Context) context.Context {
	return context.WithValue(ctx, key{}, 1)
}

func misplaced(name string, ctx context.Context) error { // want ctxfirst: context.Context must be the first parameter
	return ctx.Err()
}

func wellPlaced(ctx context.Context, name string) error {
	return ctx.Err()
}

func (s *Store) QueryPoint(id uint64) int { // want queryctx: Store.QueryPoint performs query I/O but takes no context
	return s.n
}

func (s *Store) QueryRange(ctx context.Context, lo, hi uint64) int {
	return s.n
}

func (s *Store) Len() int { return s.n }

// Unexported receivers are plumbing, not API.
func (helperTable) QueryAll() {}
`,
		"main.go": `package main

func main() {
	ctx := context.Background()
	_ = ctx
}
`,
		"roots_test.go": `package a

func TestRoot(t *testing.T) {
	ctx := context.Background()
	_ = ctx
}
`},
}
