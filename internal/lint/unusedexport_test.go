package lint

import "testing"

func TestUnusedExportFixture(t *testing.T) {
	rep := runFixture(t, "unused", &Config{})
	checkFindings(t, rep, []want{
		{check: "unused-export/unused-export", file: "lib/lib.go", msg: "func lib.Unused "},
		{check: "unused-export/unused-export", file: "lib/lib.go", msg: "type lib.UnusedType "},
		{check: "unused-export/unused-export", file: "lib/lib.go", msg: "var lib.UnusedVar "},
		// Named only in its own methods' receivers and bodies.
		{check: "unused-export/unused-export", file: "lib/lib.go", msg: "type lib.Receiver "},
		// A recursive call is a use inside its own declaration.
		{check: "unused-export/unused-export", file: "lib/lib.go", msg: "func lib.Recurse "},
		// A _test.go reference is not a use.
		{check: "unused-export/unused-export", file: "lib/lib.go", msg: "func lib.TestOnly "},
		{check: "unused-export/unused-export", file: "lib/lib.go", waived: true, msg: "func lib.Waived "},
	})
}
