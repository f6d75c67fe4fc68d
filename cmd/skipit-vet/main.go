// Command skipit-vet runs the skipit static-analysis suite
// (internal/analysis): determinism, detflow, hotalloc, nextevent,
// metricname and staleignore.
//
// It supports two modes:
//
//   - vettool mode: when invoked by the go command
//     (go vet -vettool=$(which skipit-vet) ./...) it speaks the unitchecker
//     protocol — the go command passes a *.cfg file per package and a
//     -V=full version probe, and handles package loading, caching and fact
//     serialization itself.
//
//   - standalone mode: `skipit-vet [-json] [-tests] [packages]` loads and
//     type-checks packages in-process (internal/analysis/driver) and prints
//     findings, one per line, or as a JSON array for machine consumers such
//     as cmd/ghannotate. Exit status: 0 clean, 1 findings, 2 failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"
	"skipit/internal/analysis/driver"
	"skipit/internal/analysis/skipvet"
)

// jsonDiag is the machine-readable finding shape consumed by cmd/ghannotate.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	// The go command drives vettools through the unitchecker protocol: a
	// -V=full version probe and a -flags capability probe, then one
	// invocation per package with a *.cfg argument.
	for _, arg := range os.Args[1:] {
		if strings.HasSuffix(arg, ".cfg") || strings.HasPrefix(arg, "-V") || arg == "-flags" {
			unitchecker.Main(skipvet.Analyzers...) // never returns
		}
	}

	asJSON := flag.Bool("json", false, "emit findings as a JSON array")
	tests := flag.Bool("tests", true, "also analyze _test.go compilation units")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: skipit-vet [-json] [-tests=false] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzers:\n")
		for _, a := range skipvet.Analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	l := &driver.Loader{Tests: *tests}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipit-vet: %v\n", err)
		os.Exit(2)
	}
	diags, err := driver.Run(pkgs, l.Fset, skipvet.Analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipit-vet: %v\n", err)
		os.Exit(2)
	}

	if *asJSON {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:     d.Posn.Filename,
				Line:     d.Posn.Line,
				Col:      d.Posn.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "skipit-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: %s (%s)\n", d.Posn, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
