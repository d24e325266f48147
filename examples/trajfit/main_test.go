package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestTrajfit runs the example and checks its claim: the model refined on
// trajectory records answers the query with a lower MAPE than the crude
// prior it started from.
func TestTrajfit(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	i := strings.Index(out.String(), "query MAPE")
	if i < 0 {
		t.Fatalf("no query MAPE line:\n%s", out.String())
	}
	var fitted, prior float64
	if _, err := fmt.Sscanf(out.String()[i:], "query MAPE with trajectory-trained model: %f (crude prior alone: %f)", &fitted, &prior); err != nil {
		t.Fatal(err)
	}
	if fitted >= prior {
		t.Errorf("trajectory-trained MAPE %v does not beat the prior's %v", fitted, prior)
	}
}
