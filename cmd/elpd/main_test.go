package main

import (
	"strings"
	"testing"
)

// TestRunRejectsUnknownFlags: a flag elpd does not define, such as
// -wire-nocoalesce, fails at parse time, before any listener starts.
func TestRunRejectsUnknownFlags(t *testing.T) {
	err := run([]string{"-wire-nocoalesce"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -wire-nocoalesce") {
		t.Fatalf("run(-wire-nocoalesce) = %v, want an unknown-flag error", err)
	}
}
