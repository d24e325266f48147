package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestAccidentwatch runs the example and checks its claim: no sweep before
// 10:00 raises an alert, and the 10:00 sweep alerts a road the staged
// accident slowed (marked *).
func TestAccidentwatch(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	sweeps := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && len(f[0]) == 5 && f[0][2] == ':' {
			sweeps[f[0]] = strings.Join(f[2:], " ")
		}
	}
	for _, clock := range []string{"08:00", "08:30", "09:00", "09:30"} {
		if alerts, ok := sweeps[clock]; !ok || alerts != "—" {
			t.Errorf("%s: alerts %q, want none", clock, alerts)
		}
	}
	if alerts := sweeps["10:00"]; !strings.Contains(alerts, "*") {
		t.Errorf("10:00: alerts %q name no road the accident slowed", alerts)
	}
}
