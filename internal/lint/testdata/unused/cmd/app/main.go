// Command app is the non-test consumer. Its own exports sit outside
// any internal/ package, so they are out of scope.
package main

import "ufix/internal/lib"

// Exported is unused but lives outside internal/.
func Exported() {}

func main() {
	var u lib.Used
	_ = u
	_ = lib.UsedElsewhere()
}
