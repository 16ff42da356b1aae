// Command upilint is the engine's multichecker: it bundles the custom
// analyzers that encode upidb's load-bearing invariants (lockcheck,
// sentinelcheck, ctxcheck) and exits non-zero when any
// diagnostic survives targeted //lint: suppression. The general-purpose
// passes (go vet, staticcheck) run from upstream in CI.
//
// Usage:
//
//	go run ./cmd/upilint ./...
//	go run ./cmd/upilint -tests=false -checks lockcheck,ctxcheck ./internal/...
//
// The rule catalog — what each analyzer enforces and why the
// invariant exists — is in the README's "Static analysis" section.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"upidb/internal/lint"
	"upidb/internal/lint/ctxcheck"
	"upidb/internal/lint/lockcheck"
	"upidb/internal/lint/sentinelcheck"
)

// all is the registry, in catalog order.
var all = []*lint.Analyzer{
	lockcheck.Analyzer,
	sentinelcheck.Analyzer,
	ctxcheck.Analyzer,
}

func main() {
	checks := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	tests := flag.Bool("tests", true, "also analyze _test.go files")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: upilint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "upilint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	pkgs, err := lint.Load(lint.LoadConfig{Tests: *tests}, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "upilint:", err)
		os.Exit(2)
	}

	diags := lint.Run(analyzers, pkgs)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "upilint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func selectAnalyzers(checks string) ([]*lint.Analyzer, error) {
	if checks == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(checks, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
