// Package lib is the unused-export fixture: each exported identifier
// the check must flag is marked "want: unused-export".
package lib

func Unused() {} // want: unused-export

type UnusedType struct{} // want: unused-export

var UnusedVar = 1 // want: unused-export

// Receiver is named only inside its own methods.
type Receiver struct{ n int } // want: unused-export

// Get is a method: methods are out of scope.
func (r *Receiver) Get() int { return r.n }

func (r Receiver) Clone() Receiver { return Receiver{n: r.n} }

// Recurse calls only itself.
func Recurse(n int) int { // want: unused-export
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// TestOnly is referenced only from lib_test.go.
func TestOnly() int { return 1 } // want: unused-export

// Answer is a const: consts are out of scope.
const Answer = 42

// Used is named by cmd/app; its uncalled method is out of scope.
type Used struct{}

func (Used) Method() {}

// UsedElsewhere is called by cmd/app, a non-test package.
func UsedElsewhere() int { return helper() }

// UsedInPackage is called by an unexported function of its own package.
func UsedInPackage() int { return 2 }

func helper() int { return UsedInPackage() }

// Waived is unused but waived.
//
//crossvet:unused-export kept for a paper-table test
func Waived() {}
