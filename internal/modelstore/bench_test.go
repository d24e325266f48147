package modelstore

import "testing"

// BenchmarkSnapshotSave times one publish of an 80-road model: encode,
// checksums, fsync, atomic rename and manifest rewrite. Older versions are
// collected outside the timer so the manifest stays one entry long.
func BenchmarkSnapshotSave(b *testing.B) {
	f := newFixture(b, 80, 4, 3)
	s := openStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := s.Save(f.model(), Meta{Source: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.SetBytes(info.SizeBytes)
		if _, err := s.GC(1); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkSnapshotLoad times one load of an 80-road model: read, decode and
// verify every checksum.
func BenchmarkSnapshotLoad(b *testing.B) {
	f := newFixture(b, 80, 4, 3)
	s := openStore(b)
	info, err := s.Save(f.model(), Meta{Source: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.SizeBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Load(info.Version); err != nil {
			b.Fatal(err)
		}
	}
}
