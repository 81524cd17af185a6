// Command crossvet statically enforces the repository's determinism
// and cross-boundary contracts: it loads every package of the module
// with the standard library's go/parser and go/types (zero
// dependencies, like everything else here) and runs the
// internal/lint analyzer suite over them. The report is deterministic
// — findings in sorted order with a sha256 report hash, the same
// convention as crossfuzz and crosspart — so two runs over the same
// tree are byte-identical and the gate itself obeys the contract it
// enforces.
//
// Usage:
//
//	crossvet [-C dir] [-json] [-show-waived]   run the suite
//	crossvet -ci                               the CI gate: gofmt + suite
//	crossvet -list                             list analyzers and contracts
//	crossvet -version                          build identity
//
// Exit status is 0 when the tree is clean (no unwaived findings and,
// under -ci, no unformatted files), 1 when it is not, 2 on usage or
// load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/lint"
)

func main() {
	var (
		dir        = flag.String("C", ".", "module root (or any directory inside it)")
		jsonOut    = flag.Bool("json", false, "emit the report as JSON")
		ci         = flag.Bool("ci", false, "run the full CI gate: gofmt check plus the analyzer suite")
		list       = flag.Bool("list", false, "list the analyzers and the contract each enforces")
		showWaived = flag.Bool("show-waived", false, "include waived findings in the text report")
	)
	cli.Parse("crossvet")

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-13s %s\n", a.Name, a.Contract)
		}
		return
	}

	root, err := lint.FindModuleRoot(*dir)
	if err != nil {
		fatal(err)
	}
	var unformatted []string
	if *ci {
		if unformatted, err = lint.Unformatted(root); err != nil {
			fatal(err)
		}
	}
	m, err := lint.LoadModule(root)
	if err != nil {
		fatal(err)
	}
	report, err := lint.Run(m, lint.DefaultConfig())
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		out := struct {
			*lint.Report
			Unformatted []string `json:"unformatted,omitempty"`
		}{report, unformatted}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		fmt.Print(report.Render(*showWaived))
		for _, f := range unformatted {
			fmt.Printf("gofmt: %s is not gofmt-formatted\n", f)
		}
	}

	if len(report.Unwaived()) > 0 || len(unformatted) > 0 {
		os.Exit(1)
	}
}

// fatal reports a load/usage error on stderr and exits 2, keeping
// exit 1 unambiguous: 1 always means findings.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crossvet:", err)
	os.Exit(2)
}
