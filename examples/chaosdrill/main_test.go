package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// TestChaosdrill runs the example and checks its claims: under supply
// faults the query keeps answering from probes and recycles the budget of
// failed tasks into later rounds; with the whole crowd gone it degrades to
// the prior instead of failing; and in the overload replay batch traffic is
// shed no later than interactive traffic while alerting is never shed.
func TestChaosdrill(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	type drill struct {
		rounds, spent, recycled int
		degraded                bool
	}
	drills := map[string]drill{}
	for _, sec := range strings.Split(text, "\n== ")[1:] {
		label, body, _ := strings.Cut(sec, " ==\n")
		var d drill
		if _, err := fmt.Sscanf(body, "rounds %d, spent %d/40, recycled %d", &d.rounds, &d.spent, &d.recycled); err != nil {
			continue // the overload drill
		}
		d.degraded = strings.Contains(body, "degraded=true")
		drills[strings.Fields(label)[0]] = d
	}
	calm, storm, blackout := drills["calm"], drills["storm:"], drills["total"]
	if len(drills) != 3 {
		t.Fatalf("parsed drills %+v from:\n%s", drills, text)
	}
	for name, d := range map[string]drill{"calm": calm, "storm": storm} {
		if d.degraded || d.spent == 0 || d.spent > 40 {
			t.Errorf("%s: %+v, want probes bought within the budget", name, d)
		}
	}
	if storm.rounds < 2 || storm.recycled == 0 {
		t.Errorf("storm: %+v, want failed-task budget recycled into a later round", storm)
	}
	if !blackout.degraded || blackout.spent != 0 {
		t.Errorf("total blackout: %+v, want a degraded answer that spent nothing", blackout)
	}

	m := regexp.MustCompile(`first shed step by class: map\[(.*)\]`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no first-shed line:\n%s", text)
	}
	first := map[string]int{}
	for _, kv := range strings.Fields(m[1]) {
		var step int
		class, v, _ := strings.Cut(kv, ":")
		if _, err := fmt.Sscan(v, &step); err != nil {
			t.Fatal(err)
		}
		first[class] = step
	}
	batch, ok := first["batch"]
	if !ok {
		t.Fatalf("batch never shed: %v", first)
	}
	if step, ok := first["interactive"]; ok && step < batch {
		t.Errorf("interactive shed at step %d, before batch at %d", step, batch)
	}
	if _, ok := first["alerting"]; ok {
		t.Errorf("alerting traffic was shed: %v", first)
	}
}
