// Command skipit-vet runs the skipit static-analysis suite
// (internal/analysis): determinism, detflow, hotalloc, nextevent,
// metricname and staleignore.
//
//	skipit-vet [-json] [packages]
//
// It loads and type-checks the packages and their _test.go compilation
// units in-process (internal/analysis/driver) and prints findings, one per
// line, or as a JSON array for machine consumers such as cmd/ghannotate.
// Exit status: 0 clean, 1 findings, 2 failure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages named by args and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("skipit-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: skipit-vet [-json] [packages]\n\n")
		fmt.Fprintf(stderr, "Analyzers:\n")
		for _, a := range skipvet.Analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	l := &driver.Loader{Tests: true}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "skipit-vet: %v\n", err)
		return 2
	}
	diags, err := driver.Run(pkgs, l.Fset, skipvet.Analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "skipit-vet: %v\n", err)
		return 2
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
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "skipit-vet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s (%s)\n", d.Posn, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
