// Command use consumes the fixture's exported API, so the fixture is
// clean under unused-export and exercises only its own analyzer.
package main

import "bfix/internal/asim"

var _ = []any{asim.Bare, asim.BarePkgLevel, asim.Waived, asim.SpanParam, asim.Local, asim.Client{}}

func main() {}
