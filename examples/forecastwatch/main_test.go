package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestForecastwatch runs the example and checks its claim: on every
// forecast line, the fan's SD never narrows from one step ahead to the next
// and is wider at the last step than at the first.
func TestForecastwatch(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	sd := regexp.MustCompile(`\+\d+m +[0-9.]+ ± +([0-9.]+)`)
	fans := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.Contains(line, "forecast:") {
			continue
		}
		fans++
		var sds []float64
		for _, m := range sd.FindAllStringSubmatch(line, -1) {
			v, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			sds = append(sds, v)
		}
		if len(sds) != fanDepth {
			t.Fatalf("%d fan steps in %q, want %d", len(sds), line, fanDepth)
		}
		for k := 1; k < len(sds); k++ {
			if sds[k] < sds[k-1] {
				t.Errorf("fan narrows from ±%v to ±%v: %q", sds[k-1], sds[k], line)
			}
		}
		if sds[len(sds)-1] <= sds[0] {
			t.Errorf("fan does not widen: %q", line)
		}
	}
	if fans != 12 {
		t.Fatalf("%d forecast lines, want 4 slots × 3 roads:\n%s", fans, out.String())
	}
}
