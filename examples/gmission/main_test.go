package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestGMission runs the example and checks its claim: MAPE falls as the
// budget K grows.
func TestGMission(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	var mapes []float64
	for _, line := range strings.Split(out.String(), "\n") {
		var k, probed int
		var mape, fer float64
		if n, _ := fmt.Sscanf(line, "%d %d %f %f", &k, &probed, &mape, &fer); n == 4 {
			mapes = append(mapes, mape)
		}
	}
	if len(mapes) != 5 {
		t.Fatalf("%d budget rows, want 5:\n%s", len(mapes), out.String())
	}
	for i := 1; i < len(mapes); i++ {
		if mapes[i] >= mapes[i-1] {
			t.Errorf("MAPE %v at row %d does not fall below %v", mapes[i], i, mapes[i-1])
		}
	}
}
