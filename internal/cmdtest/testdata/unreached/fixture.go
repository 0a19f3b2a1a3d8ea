// Package fixture pins the unreached-declaration rule: each declaration
// below draws the verdict its doc comment names.
package fixture

import "fmt"

// Dead is used by nothing: dead.
func Dead() {}

// Recursive is used only by itself: dead.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// sameDir is used only by fixture_test.go beside it: same-dir-tests-only.
func sameDir() int { return 1 }

// OtherDir is used only by other/other_test.go: live.
func OtherDir() int { return 2 }

// Allowed is used by nothing but is allowlisted: passes.
func Allowed() {}

// Name is used by Live below.
type Name struct{}

// String is reached only through fmt.Stringer: live.
func (Name) String() string { return "name" }

// Live is used by cmd/tool: live.
func Live() string { return fmt.Sprint(Name{}) }
