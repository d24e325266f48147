package temporal

import "testing"

// benchFilter builds a filter over an 80-road network (the experiments' Small
// scale) and eight probe answers to fuse.
func benchFilter(b *testing.B) (*Filter, map[int]float64) {
	b.Helper()
	_, m := testModel(b, 80)
	f, err := New(m, 100, DefaultParams(), nil, Options{})
	if err != nil {
		b.Fatal(err)
	}
	observed := map[int]float64{}
	for r := 0; r < f.N(); r += 10 {
		observed[r] = m.Mu(100, r) + 2
	}
	return f, observed
}

// BenchmarkFilterStep times one predict+update step: advance one slot, then
// fuse the probe answers.
func BenchmarkFilterStep(b *testing.B) {
	f, observed := benchFilter(b)
	t := f.Slot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = t.Next()
		if _, err := f.Advance(t); err != nil {
			b.Fatal(err)
		}
		if err := f.Update(observed, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForecastFrom times the read-only /v1/forecast path: snapshot,
// sync one slot forward, fuse the probe answers, roll a 4-step fan out.
func BenchmarkForecastFrom(b *testing.B) {
	f, observed := benchFilter(b)
	base := f.Slot().Next()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ForecastFrom(base, 4, observed, nil); err != nil {
			b.Fatal(err)
		}
	}
}
