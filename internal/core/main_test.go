package core

import (
	"os"
	"testing"

	"ecstore/internal/bufpool"
)

// TestMain runs the package's tests with bufpool's poison mode on: a
// released buffer is overwritten at once, so any test that still reads
// one sees garbage, and a buffer released twice panics.
func TestMain(m *testing.M) {
	bufpool.SetPoison(true)
	os.Exit(m.Run())
}
