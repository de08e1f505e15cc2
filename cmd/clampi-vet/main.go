// Command clampi-vet runs the project's invariant analyzers over Go
// packages — the compile-time counterpart of foMPI's runtime assertion
// modes (DESIGN.md §9):
//
//	epochcheck    RMA results are read only after the epoch closes
//	simclock      latency accounting flows through internal/simtime
//	sentinelerr   sentinel errors are matched with errors.Is / wrapped with %w
//	atomicfield   // clampi:atomic fields use sync/atomic only
//	observerlock  core.Observer is never notified under a mutex
//	wireproto     the wire op/error tables stay in lockstep (DESIGN.md §13)
//
// Usage:
//
//	go run ./cmd/clampi-vet [-only name,name] [-list] [-json] [packages]
//
// Packages default to ./... . With -json each diagnostic is one JSON
// object per line ({"analyzer","position","message"}) for CI to render
// as annotations. Exit status: 0 clean, 1 diagnostics found, 2 usage or
// load failure — identical in both output modes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"strings"

	"clampi/internal/analysis"
	"clampi/internal/analysis/suite"
)

// jsonDiag is the -json line format: stable field names for CI tooling.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	Position string `json:"position"`
	Message  string `json:"message"`
}

// printDiags renders the diagnostics: the human "pos: analyzer: msg"
// lines by default, or one JSON object per line with -json. The output
// mode never changes what is reported, only how.
func printDiags(w io.Writer, fset *token.FileSet, diags []analysis.Diagnostic, jsonOut bool) {
	enc := json.NewEncoder(w)
	for _, d := range diags {
		if jsonOut {
			_ = enc.Encode(jsonDiag{
				Analyzer: d.Analyzer,
				Position: fset.Position(d.Pos).String(),
				Message:  d.Message,
			})
			continue
		}
		fmt.Fprintf(w, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("clampi-vet", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	jsonOut := fs.Bool("json", false, "emit one JSON object per diagnostic line")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: clampi-vet [-only name,name] [-list] [-json] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := suite.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer, len(analyzers))
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var selected []*analysis.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "clampi-vet: unknown analyzer %q (see -list)\n", name)
				return 2
			}
			selected = append(selected, a)
		}
		analyzers = selected
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := analysis.NewLoader()
	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clampi-vet:", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clampi-vet:", err)
		return 2
	}
	printDiags(os.Stdout, loader.Fset(), diags, *jsonOut)
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "clampi-vet: %d invariant violation(s)\n", len(diags))
		return 1
	}
	return 0
}
