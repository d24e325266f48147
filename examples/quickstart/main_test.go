package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestQuickstart runs the example and checks its claim: the query spends
// the whole budget, and the crowdsourced estimates sit closer to the
// held-out truth than the periodic prior on the queried roads.
func TestQuickstart(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "budget spent: 25/25 answers") {
		t.Errorf("budget line missing:\n%s", out.String())
	}
	var rows int
	var errPeriodic, errEstimate float64
	for _, line := range strings.Split(out.String(), "\n") {
		var road int
		var periodic, estimate, truth float64
		if n, _ := fmt.Sscanf(line, "%d %f %f %f", &road, &periodic, &estimate, &truth); n != 4 {
			continue
		}
		rows++
		errPeriodic += math.Abs(periodic - truth)
		errEstimate += math.Abs(estimate - truth)
	}
	if rows != 10 {
		t.Fatalf("%d estimate rows, want 10:\n%s", rows, out.String())
	}
	if errEstimate >= errPeriodic {
		t.Errorf("estimates miss the truth by %.1f km/h in total, the periodic prior by %.1f", errEstimate, errPeriodic)
	}
}
