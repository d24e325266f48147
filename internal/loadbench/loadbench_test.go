package loadbench

import "testing"

// TestRunReplay exercises one small replay end to end and checks the QoS
// ladder's structural invariants: alerting is never shed, the class order
// holds, the batch shed rate at the surge stays under the ceiling, degraded
// tiers are labeled, and the server recovers to full fidelity after the
// surge drains.
func TestRunReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("load replay in -short mode")
	}
	rep, err := Run(Options{Steps: 8, MaxInFlight: 16, SurgeMultiple: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SurgeSteps == 0 {
		t.Fatal("no surge steps — the replay never exceeded capacity")
	}
	if rep.Classes["alerting"].Shed != 0 {
		t.Errorf("alerting shed %d requests; the ladder must never shed alerting", rep.Classes["alerting"].Shed)
	}
	if !rep.ClassOrderOK {
		t.Errorf("class order violated: %+v", rep.Classes)
	}
	if !rep.RecoveredFullTier {
		t.Error("post-surge batch request did not recover to the full tier")
	}
	if rep.BatchSurgeShedRate > rep.ShedCeiling {
		t.Errorf("batch surge shed rate %.2f above ceiling %.2f", rep.BatchSurgeShedRate, rep.ShedCeiling)
	}
	total := 0
	for class, cs := range rep.Classes {
		total += cs.Sent
		if cs.Sent == 0 {
			t.Errorf("class %s saw no traffic", class)
		}
		if cs.Admitted > 0 && len(cs.Tiers) == 0 {
			t.Errorf("class %s: %d admitted but no tier labels", class, cs.Admitted)
		}
	}
	if total == 0 {
		t.Fatal("replay sent nothing")
	}
}

func TestQuantile(t *testing.T) {
	if got := quantile(nil, 0.99); got != 0 {
		t.Errorf("empty quantile %v", got)
	}
	xs := []float64{5, 1, 9, 3, 7}
	if got := quantile(xs, 0.5); got != 5 {
		t.Errorf("median %v, want 5", got)
	}
	if got := quantile(xs, 1); got != 9 {
		t.Errorf("max %v, want 9", got)
	}
}
