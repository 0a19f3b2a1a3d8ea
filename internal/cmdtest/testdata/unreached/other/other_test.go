package other

import (
	"testing"

	"fixture"
)

func TestOtherDir(t *testing.T) {
	if fixture.OtherDir() != 2 {
		t.Fatal("OtherDir")
	}
}
