package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestRouteplanner runs the example and checks its claim: the plan on
// CrowdRTSE's estimates detours around the jam and beats the periodic plan
// on true travel time, and no plan beats the hindsight optimum.
func TestRouteplanner(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	minutes := map[string]float64{}
	for _, m := range regexp.MustCompile(`(?m)^(periodic speeds|CrowdRTSE estimates|true speeds) +\d+ +([0-9.]+)`).FindAllStringSubmatch(out.String(), -1) {
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		minutes[m[1]] = v
	}
	if len(minutes) != 3 {
		t.Fatalf("parsed %v from:\n%s", minutes, out.String())
	}
	if minutes["CrowdRTSE estimates"] >= minutes["periodic speeds"] {
		t.Errorf("realtime plan %.1f min does not beat the periodic plan %.1f min",
			minutes["CrowdRTSE estimates"], minutes["periodic speeds"])
	}
	if minutes["true speeds"] > minutes["CrowdRTSE estimates"] {
		t.Errorf("hindsight optimum %.1f min is slower than the realtime plan %.1f min",
			minutes["true speeds"], minutes["CrowdRTSE estimates"])
	}
}
