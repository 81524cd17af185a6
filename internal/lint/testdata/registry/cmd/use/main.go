// Command use consumes the fixture's exported API, so the fixture is
// clean under unused-export and exercises only its own analyzer.
package main

import (
	"regfix/internal/classify"
	"regfix/internal/reg"
	"regfix/internal/scen"
)

var _ = []any{
	reg.FigRegistry, reg.SkewRegistry, reg.PartRegistry, reg.LoadRegistry,
	classify.ClassifyFig, classify.ClassifySkew, scen.Scenarios,
}

func main() {}
