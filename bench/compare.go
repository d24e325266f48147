package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison reads: each end-to-end
// metric's direction and bound.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// compareFiles prints, for every (metric, workload) both files measured,
// each side's median and quartiles over its runs and a verdict.
//
// An end-to-end metric regressed when B's median is worse than A's by more
// than the metric's bound; it is unresolved when either side's spread
// (quartile distance over median) exceeds the bound, unless every B run
// beats every A run; it improved when B's median is better by more than A's
// own spread and B wins at least nine in ten runs paired in file order.
// Per-layer metrics and the workload-specific extras have no bound and get
// no verdict. The relative change
// B/A − 1 of lat_p50_ms between an untraced file A and a traced file B is
// the tracing overhead.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	byWorkload := func(recs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range recs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var names []string
	for name := range wa {
		if _, ok := wb[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-26s %26s %26s %8s  %s\n", "workload", "metric",
		"A median [q1, q3]", "B median [q1, q3]", "B/A-1", "verdict")
	counts := map[string]int{}
	row := func(wl, metric string, better string, bound float64) {
		va, vb := values(wa[wl], metric), values(wb[wl], metric)
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		a1, am, a3 := quartiles(va)
		b1, bm, b3 := quartiles(vb)
		verdict := "-"
		if better != "" {
			verdict = judge(va, vb, better, bound)
			counts[verdict]++
		}
		fmt.Fprintf(w, "%-16s %-26s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %+7.1f%%  %s\n",
			wl, metric, am, a1, a3, bm, b1, b3, 100*ratio(bm-am, am), verdict)
	}
	for _, wl := range names {
		for _, m := range sp.EndToEnd {
			row(wl, m.Name, m.Better, m.Bound)
		}
		for _, set := range [][]metricDef{perLayer, extras} {
			for _, m := range set {
				row(wl, m.name, "", 0)
			}
		}
	}
	fmt.Fprintf(w, "summary: %d improved, %d unchanged, %d regressed, %d unresolved\n",
		counts["improved"], counts["unchanged"], counts["regressed"], counts["unresolved"])
	return nil
}

func values(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// judge gives the verdict for one end-to-end metric; worse is measured in
// the metric's direction, relative to A's median.
func judge(va, vb []float64, better string, bound float64) string {
	sign := 1.0 // lower is better: an increase is worse
	if better == "higher" {
		sign = -1
	}
	if len(va) < 4 || len(vb) < 4 {
		return "unresolved" // too few runs for quartiles
	}
	a1, am, a3 := quartiles(va)
	b1, bm, b3 := quartiles(vb)
	worse := sign * ratio(bm-am, am)
	spreadA, spreadB := ratio(a3-a1, am), ratio(b3-b1, bm)
	if spreadA > bound || spreadB > bound {
		allBetter := true
		for _, x := range va {
			for _, y := range vb {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "improved"
		}
		return "unresolved"
	}
	if worse > bound {
		return "regressed"
	}
	wins, pairs := 0, min(len(va), len(vb))
	for i := 0; i < pairs; i++ {
		if sign*(vb[i]-va[i]) < 0 {
			wins++
		}
	}
	if -worse > spreadA && 10*wins >= 9*pairs {
		return "improved"
	}
	return "unchanged"
}
