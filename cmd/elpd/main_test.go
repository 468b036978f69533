package main

import (
	"strings"
	"testing"
)

// TestRunRejectsUnknownFlags: a flag elpd does not define, such as the
// removed knobs -wire-nocoalesce and -disable-fusion, fails at parse
// time, before any listener starts.
func TestRunRejectsUnknownFlags(t *testing.T) {
	for _, flag := range []string{"-wire-nocoalesce", "-disable-fusion"} {
		err := run([]string{flag})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag) {
			t.Fatalf("run(%s) = %v, want an unknown-flag error", flag, err)
		}
	}
}
