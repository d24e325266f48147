package modelstore

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/network"
)

func TestFileRoundTrip(t *testing.T) {
	f := newFixture(t, 16, 3, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.rtf")
	meta := Meta{CreatedAtUnix: 1700000000, Source: "offline-fit"}
	if err := WriteFile(path, f.model(), meta); err != nil {
		t.Fatal(err)
	}
	// The file is exactly the snapshot Encode produces.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := Encode(&want, f.model(), meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Error("WriteFile bytes differ from Encode")
	}
	m, err := ReadFile(path, f.net)
	if err != nil {
		t.Fatal(err)
	}
	sameParams(t, f.model(), m)
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("WriteFile left %d files in its directory, want 1", len(entries))
	}

	// Same road count, other edges: refused.
	other := network.Synthetic(network.SyntheticOptions{Roads: 16, Seed: 77})
	if NetworkTopologyHash(other) == NetworkTopologyHash(f.net) {
		t.Fatal("fixture networks share a topology")
	}
	if _, err := ReadFile(path, other); !errors.Is(err, ErrTopologyMismatch) {
		t.Errorf("other topology: %v, want ErrTopologyMismatch", err)
	}
}

// TestWriteAtomicKeepsOldFile: a write that fails part-way leaves the
// previous file intact and no temp file behind.
func TestWriteAtomicKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "MANIFEST.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	if _, err := writeAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half of the new"); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("writeAtomic: %v, want the write's error", err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != "old" {
		t.Errorf("failed write replaced the file with %q", raw)
	}
	n, err := writeAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	})
	if err != nil || n != 3 {
		t.Fatalf("writeAtomic = %d, %v, want 3 bytes", n, err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != "new" {
		t.Errorf("file holds %q, want new", raw)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("%d files in the directory, want 1 (a temp file was left)", len(entries))
	}
}
