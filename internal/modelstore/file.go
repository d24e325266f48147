package modelstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/network"
	"repro/internal/rtf"
)

// WriteFile writes m as a standalone snapshot file at path — the model file
// `crowdrtse train` produces and every command reads back with ReadFile. It
// is published like a store version: nothing appears at path until the
// whole snapshot is on disk.
func WriteFile(path string, m *rtf.Model, meta Meta) error {
	if _, err := writeAtomic(path, func(w io.Writer) error { return Encode(w, m, meta) }); err != nil {
		return fmt.Errorf("modelstore: write %s: %w", path, err)
	}
	return nil
}

// ReadFile decodes the snapshot file at path and refuses it, with an error
// wrapping ErrTopologyMismatch, unless it was fitted on net's topology. It
// is the one reader of a model file: every checksum and parameter check of
// Decode applies, and Store.Load shares its body.
func ReadFile(path string, net *network.Network) (*rtf.Model, error) {
	m, err := readSnapshot(path, NetworkTopologyHash(net))
	if err != nil {
		return nil, fmt.Errorf("modelstore: read %s: %w", path, err)
	}
	return m, nil
}

// readSnapshot decodes the snapshot file at path, refusing it unless its
// topology hash is topo.
func readSnapshot(path string, topo uint64) (*rtf.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, _, _, err := DecodeVerify(f, topo)
	return m, err
}

// writeAtomic replaces path with what write produces: it writes a temp file
// in path's directory, fsyncs and closes it, then renames it over path. A
// crash leaves the old file or the new one, never a torn one — at worst a
// stray .tmp-* file, which Store.GC sweeps. It returns the bytes written.
func writeAtomic(path string, write func(io.Writer) error) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	var size int64
	if err == nil {
		size, err = tmp.Seek(0, io.SeekCurrent)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return size, nil
}
