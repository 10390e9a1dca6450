// Command halotislint is the HALOTIS multichecker: it runs the
// internal/analysis suite — determinism, noalloc, ctxflow, metricreg,
// wiretags — over the module and exits non-zero on any finding.
//
// Usage:
//
//	halotislint [-list] [-run name,name] [pattern ...]
//
// Patterns are import-path prefixes or the literal ./... (the default);
// the whole module is always loaded and type-checked (analyzers need the
// full in-module import graph), patterns only select which packages'
// findings are reported.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"halotis/internal/analysis"
	"halotis/internal/buildinfo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, runs the selected analyzers over the
// module in the working directory and prints every finding to stdout. It
// returns the exit status: 0 when clean, 1 on findings, 2 on a usage or
// load error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("halotislint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	runNames := fs.String("run", "", "comma-separated analyzer names to run (default all)")
	version := fs.Bool("version", false, "print version and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: halotislint [-list] [-run name,name] [pattern ...]\n\nAnalyzers:\n")
		for _, s := range analysis.Suite() {
			fmt.Fprintf(stderr, "  %-12s %s\n", s.Name, s.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *version {
		v, rev, goVersion := buildinfo.Info()
		fmt.Fprintf(stdout, "halotislint %s (%s, %s)\n", v, rev, goVersion)
		return 0
	}
	if *list {
		for _, s := range analysis.Suite() {
			scope := "all packages"
			if len(s.Paths) > 0 {
				scope = strings.Join(s.Paths, ", ")
			}
			fmt.Fprintf(stdout, "%-12s %s\n%14s scope: %s\n", s.Name, s.Doc, "", scope)
		}
		return 0
	}

	suite := analysis.Suite()
	if *runNames != "" {
		var sel []analysis.Scoped
		for _, name := range strings.Split(*runNames, ",") {
			s := analysis.ByName(strings.TrimSpace(name))
			if s == nil {
				fmt.Fprintf(stderr, "halotislint: unknown analyzer %q\n", name)
				return 2
			}
			sel = append(sel, *s)
		}
		suite = sel
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "halotislint:", err)
		return 2
	}
	pkgs, err := analysis.Load(wd)
	if err != nil {
		fmt.Fprintln(stderr, "halotislint:", err)
		return 2
	}

	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		if !selected(pkg.Path, patterns) {
			continue
		}
		for _, s := range suite {
			if !s.Matches(pkg.Path) {
				continue
			}
			diags, err := analysis.Run(s.Analyzer, pkg)
			if err != nil {
				fmt.Fprintln(stderr, "halotislint:", err)
				return 2
			}
			all = append(all, diags...)
		}
	}
	analysis.SortDiagnostics(all)
	for _, d := range all {
		fmt.Fprintln(stdout, d)
	}
	if len(all) > 0 {
		fmt.Fprintf(stderr, "halotislint: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}

// selected reports whether an import path matches any pattern. ./... and
// ... select everything; other patterns match as path prefixes, with or
// without a trailing /...
func selected(path string, patterns []string) bool {
	for _, p := range patterns {
		p = strings.TrimSuffix(strings.TrimSuffix(p, "/..."), "...")
		p = strings.TrimSuffix(strings.TrimPrefix(p, "./"), "/")
		if p == "" || p == "." {
			return true
		}
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
		// Allow directory-style patterns relative to the module root
		// (internal/sim as well as halotis/internal/sim).
		if full := "halotis/" + p; path == full || strings.HasPrefix(path, full+"/") {
			return true
		}
	}
	return false
}
