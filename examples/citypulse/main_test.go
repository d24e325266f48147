package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestCitypulse runs the example and checks its claim: in every one of the
// day's 31 rounds, CrowdRTSE's MAPE is below the periodic baseline's.
func TestCitypulse(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for _, line := range strings.Split(out.String(), "\n") {
		var clock string
		var probed, spent int
		var crowd, periodic, worst float64
		if n, _ := fmt.Sscanf(line, "%s %d %d %f %f %f", &clock, &probed, &spent, &crowd, &periodic, &worst); n != 6 {
			continue
		}
		rounds++
		if crowd >= periodic {
			t.Errorf("%s: CrowdRTSE MAPE %v not below periodic %v", clock, crowd, periodic)
		}
		if spent > 20 {
			t.Errorf("%s: spent %d of the round budget 20", clock, spent)
		}
	}
	if rounds != 31 {
		t.Fatalf("%d rounds, want 31:\n%s", rounds, out.String())
	}
}
