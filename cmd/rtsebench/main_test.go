package main

import (
	"strings"
	"testing"
)

// TestRunSmallSubset drives the harness end to end on the reduced
// configuration for a cheap subset of experiments.
func TestRunSmallSubset(t *testing.T) {
	if err := run(false, "tableII,tableIII,fig5", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunQuerySizeOverride(t *testing.T) {
	if err := run(false, "tableIII", 8); err != nil {
		t.Fatal(err)
	}
}

// TestRunAblations runs the temporal, calibration and route ablations on a
// cut-down query set.
func TestRunAblations(t *testing.T) {
	if err := run(false, "temporal, Calib ,route", 12); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsUnknownName: a misspelt -only name is an error that lists
// the valid names, not a silent empty run.
func TestRunRejectsUnknownName(t *testing.T) {
	err := run(false, "tableII,fig7", 0)
	if err == nil {
		t.Fatal("unknown experiment name accepted")
	}
	for _, want := range []string{`"fig7"`, "tableii", "temporal", "calib", "route"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}
