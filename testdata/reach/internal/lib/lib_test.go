package lib

import "testing"

// A test's use reaches nothing.
func TestSeam(t *testing.T) {
	if Seam() != 2 || Unreached(3) != 0 {
		t.Fatal("lib")
	}
}
