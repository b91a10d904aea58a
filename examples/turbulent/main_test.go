package main

import (
	"os"
	"testing"
)

// TestRun runs the example end to end from the repository root, where it
// reads the shipped knowledge base, data/adamant.ann. (t.Chdir needs Go
// 1.24; go.mod says 1.23.)
func TestRun(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
