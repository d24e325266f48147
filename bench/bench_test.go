package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload for half a second, traced, against a 5k-road
// metro and checks that every metric BENCHMARK.json names is emitted with
// its unit and that no answer failed validation.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	want := append(sp.EndToEnd, sp.PerLayer...)
	for _, wl := range workloads {
		rec, err := runWorkload(config{workload: wl.name, seed: 1, seconds: 0.5, trace: true,
			metroRoads: 5000, setups: 1, traceDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if rec.Failed != 0 || !rec.Correct || rec.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %s", wl.name, rec.Failed, rec.Attempted, rec.FirstErr)
		}
		for _, m := range want {
			got, ok := rec.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v (present %v), want unit %s", wl.name, m.Name, got, ok, m.Unit)
			}
		}
	}
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestScheduleDeterministic checks that the traffic is a function of the
// seed alone.
func TestScheduleDeterministic(t *testing.T) {
	wl, err := findWorkload("paper-serve-mix")
	if err != nil {
		t.Fatal(err)
	}
	w, err := buildWorld(wl, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	schedule := func(seed int64) []byte {
		tr, err := newTraffic(wl, w, seed)
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]op, 2000)
		for i := range ops {
			ops[i] = tr.op(i)
		}
		data, err := json.Marshal(struct {
			Workers []int
			Pairs   [][2]int
			Ops     []op
		}{tr.workers, tr.pairs, ops})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b, c := schedule(1), schedule(1), schedule(2)
	if !bytes.Equal(a, b) {
		t.Error("two schedules from seed 1 differ")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 1 and 2 give the same schedule")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", shift(1), "lower", "unchanged"},
		{"slower", shift(1.2), "lower", "regressed"},
		{"faster", shift(0.8), "lower", "improved"},
		{"more throughput", shift(1.2), "higher", "improved"},
		{"noisy", wide, "lower", "unresolved"},
	} {
		if got := judge(base, tc.b, tc.better, 0.1); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}
