package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestCostcalib runs the example and checks its claims: every road gets a
// calibrated cost within the cost model's bounds, and the query's campaign
// runs with imperfect willingness — some tasks end partial — while the
// spend stays within the budget.
func TestCostcalib(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	roads := 0
	for _, line := range strings.Split(text, "\n") {
		var cost, n int
		if _, err := fmt.Sscanf(line, "  cost %d: %d roads", &cost, &n); err != nil {
			continue
		}
		if cost < 1 || cost > 8 {
			t.Errorf("cost %d outside the model's [1,8]", cost)
		}
		roads += n
	}
	if roads != 150 {
		t.Errorf("costs calibrated for %d roads, want 150", roads)
	}
	i := strings.Index(text, "campaign:")
	if i < 0 {
		t.Fatalf("no campaign line:\n%s", text)
	}
	var fulfilled, partial, failed, spent, budget int
	if _, err := fmt.Sscanf(text[i:], "campaign: %d fulfilled, %d partial, %d failed; spent %d/%d", &fulfilled, &partial, &failed, &spent, &budget); err != nil {
		t.Fatal(err)
	}
	if fulfilled == 0 || partial == 0 || spent > budget {
		t.Errorf("campaign %d fulfilled, %d partial, spent %d/%d", fulfilled, partial, spent, budget)
	}
}
