// Command use consumes the fixture's exported API, so the fixture is
// clean under unused-export and exercises only its own analyzer.
package main

import (
	"detfix/internal/clocked"
	"detfix/internal/det"
	"detfix/internal/detsim"
)

var _ = []any{
	clocked.Stamp, detsim.Tick,
	det.WallClock, det.WaivedClock, det.Env, det.Render, det.Collect, det.Rand,
}

func main() {}
