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
func Live() string {
	h := holder{written: 1, grownAt: [][]int{nil}}
	h.written = 2
	h.Exported = 3
	h.grown = append(h.grown, h.read)
	h.grownAt[0] = append(h.grownAt[0], 1)
	seen := map[pair]bool{{1, 2}: true}
	return fmt.Sprint(Name{}, h.read, len(seen))
}

// holder's fields draw the write-only rule's verdicts.
type holder struct {
	// read is read through a selector in Live: passes.
	read int
	// written is set by a composite-literal key and a plain = only:
	// write-only.
	written int
	// grown is only appended to, as h.grown = append(h.grown, …):
	// write-only.
	grown []int
	// grownAt's elements are only appended to, as h.grownAt[0] =
	// append(h.grownAt[0], …): write-only.
	grownAt [][]int
	// tagged is never read, but encoding/json reads tagged fields:
	// passes.
	tagged int `json:"tagged"`
	// Exported is set by a plain = only; being exported does not exempt
	// it: write-only.
	Exported int
}

// pair's fields are never named, but every lookup in a map keyed by
// pair reads them: passes.
type pair struct {
	a, b int
}
