package fixture

import "testing"

func TestSameDir(t *testing.T) {
	if sameDir() != 1 {
		t.Fatal("sameDir")
	}
}
