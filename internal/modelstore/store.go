package modelstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/rtf"
)

// manifestName is the version index file inside a store directory.
const manifestName = "MANIFEST.json"

// ErrNoSuchVersion is returned when a requested version is not in the store.
var ErrNoSuchVersion = errors.New("modelstore: no such version")

// ErrEmptyStore is returned by operations that need at least one published
// version.
var ErrEmptyStore = errors.New("modelstore: store is empty")

// VersionInfo describes one published snapshot.
type VersionInfo struct {
	Version       uint64 `json:"version"`
	File          string `json:"file"` // basename inside the store dir
	CreatedAtUnix int64  `json:"created_at_unix"`
	TopoHash      uint64 `json:"topo_hash"`
	Roads         int    `json:"roads"`
	Edges         int    `json:"edges"`
	SizeBytes     int64  `json:"size_bytes"`
	Meta          Meta   `json:"meta"`
}

// manifest is the on-disk version index, written atomically alongside the
// snapshots. Versions are kept ascending.
type manifest struct {
	Current  uint64        `json:"current"` // 0 = none
	Next     uint64        `json:"next"`    // next version number to assign
	Versions []VersionInfo `json:"versions"`
}

// Store is a directory of versioned RTF snapshots plus a manifest naming the
// current serving version. Publication is crash-safe: the snapshot is
// written to a temp file, fsynced, renamed into place (writeAtomic, the same
// path WriteFile takes), and only then does the manifest advance the same
// way — a torn write can leave garbage temp files, never a corrupt published
// version.
type Store struct {
	dir string

	mu  sync.Mutex
	man manifest
}

// Open opens (creating if needed) a snapshot store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelstore: open: %w", err)
	}
	s := &Store{dir: dir}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		s.man = manifest{Next: 1}
	case err != nil:
		return nil, fmt.Errorf("modelstore: open manifest: %w", err)
	default:
		if err := json.Unmarshal(raw, &s.man); err != nil {
			return nil, fmt.Errorf("modelstore: manifest corrupt: %w", err)
		}
		if s.man.Next == 0 {
			s.man.Next = 1
			for _, v := range s.man.Versions {
				if v.Version >= s.man.Next {
					s.man.Next = v.Version + 1
				}
			}
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Save encodes the model as the next version, publishes it atomically and
// marks it current. Meta.CreatedAtUnix defaults to now when zero.
func (s *Store) Save(m *rtf.Model, meta Meta) (VersionInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if meta.CreatedAtUnix == 0 {
		meta.CreatedAtUnix = time.Now().Unix()
	}
	version := s.man.Next
	name := fmt.Sprintf("v%06d.rtf", version)
	size, err := writeAtomic(filepath.Join(s.dir, name), func(w io.Writer) error { return Encode(w, m, meta) })
	if err != nil {
		return VersionInfo{}, fmt.Errorf("modelstore: save: %w", err)
	}

	info := VersionInfo{
		Version:       version,
		File:          name,
		CreatedAtUnix: meta.CreatedAtUnix,
		TopoHash:      ModelTopologyHash(m),
		Roads:         m.N(),
		Edges:         len(m.Edges()),
		SizeBytes:     size,
		Meta:          meta,
	}
	next := s.man
	next.Next = version + 1
	next.Current = version
	next.Versions = append(append([]VersionInfo(nil), s.man.Versions...), info)
	if err := s.writeManifestLocked(next); err != nil {
		// The snapshot file exists but is unreferenced; GC will sweep it.
		os.Remove(filepath.Join(s.dir, name))
		return VersionInfo{}, err
	}
	return info, nil
}

// writeManifestLocked atomically replaces the manifest and installs next as
// the in-memory state.
func (s *Store) writeManifestLocked(next manifest) error {
	raw, err := json.MarshalIndent(&next, "", "  ")
	if err != nil {
		return fmt.Errorf("modelstore: manifest: %w", err)
	}
	raw = append(raw, '\n')
	if _, err := writeAtomic(filepath.Join(s.dir, manifestName), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	}); err != nil {
		return fmt.Errorf("modelstore: manifest: %w", err)
	}
	s.man = next
	return nil
}

// Versions returns the published versions, ascending.
func (s *Store) Versions() []VersionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]VersionInfo(nil), s.man.Versions...)
}

// Current returns the current serving version; ok is false for an empty
// store.
func (s *Store) Current() (VersionInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.findLocked(s.man.Current)
}

func (s *Store) findLocked(version uint64) (VersionInfo, bool) {
	if version == 0 {
		return VersionInfo{}, false
	}
	for _, v := range s.man.Versions {
		if v.Version == version {
			return v, true
		}
	}
	return VersionInfo{}, false
}

// Load decodes the given version (0 = current).
func (s *Store) Load(version uint64) (*rtf.Model, VersionInfo, error) {
	s.mu.Lock()
	if version == 0 {
		version = s.man.Current
	}
	info, ok := s.findLocked(version)
	s.mu.Unlock()
	if !ok {
		if version == 0 {
			return nil, VersionInfo{}, ErrEmptyStore
		}
		return nil, VersionInfo{}, fmt.Errorf("%w: v%d", ErrNoSuchVersion, version)
	}
	m, err := readSnapshot(filepath.Join(s.dir, info.File), info.TopoHash)
	if err != nil {
		return nil, info, fmt.Errorf("modelstore: load v%d: %w", version, err)
	}
	return m, info, nil
}

// SetCurrent repoints the manifest's current version without touching
// snapshot files.
func (s *Store) SetCurrent(version uint64) (VersionInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.findLocked(version)
	if !ok {
		return VersionInfo{}, fmt.Errorf("%w: v%d", ErrNoSuchVersion, version)
	}
	next := s.man
	next.Current = version
	if err := s.writeManifestLocked(next); err != nil {
		return VersionInfo{}, err
	}
	return info, nil
}

// Rollback repoints current to the newest version older than the current
// one. The abandoned version stays on disk (GC decides its fate) so a
// rollback can itself be rolled forward by SetCurrent.
func (s *Store) Rollback() (VersionInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.man.Versions) == 0 {
		return VersionInfo{}, ErrEmptyStore
	}
	var prev *VersionInfo
	for i := range s.man.Versions {
		v := &s.man.Versions[i]
		if v.Version < s.man.Current && (prev == nil || v.Version > prev.Version) {
			prev = v
		}
	}
	if prev == nil {
		return VersionInfo{}, fmt.Errorf("modelstore: no version older than v%d to roll back to", s.man.Current)
	}
	next := s.man
	next.Current = prev.Version
	if err := s.writeManifestLocked(next); err != nil {
		return VersionInfo{}, err
	}
	return *prev, nil
}

// GC removes old snapshots, keeping the newest keepN versions plus — always —
// the current one, and sweeps stray temp files from interrupted publishes.
// It returns the removed version numbers.
func (s *Store) GC(keepN int) ([]uint64, error) {
	if keepN < 1 {
		keepN = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Sweep temp files regardless of the keep policy.
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".tmp-") {
				os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
	}
	if len(s.man.Versions) <= keepN {
		return nil, nil
	}
	sorted := append([]VersionInfo(nil), s.man.Versions...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Version > sorted[j].Version })
	keep := make(map[uint64]bool, keepN+1)
	for i, v := range sorted {
		if i < keepN {
			keep[v.Version] = true
		}
	}
	if s.man.Current != 0 {
		keep[s.man.Current] = true
	}
	var kept []VersionInfo
	var removed []uint64
	for _, v := range s.man.Versions {
		if keep[v.Version] {
			kept = append(kept, v)
			continue
		}
		removed = append(removed, v.Version)
	}
	if len(removed) == 0 {
		return nil, nil
	}
	next := s.man
	next.Versions = kept
	if err := s.writeManifestLocked(next); err != nil {
		return nil, err
	}
	// Delete files only after the manifest stopped referencing them.
	for _, v := range removed {
		os.Remove(filepath.Join(s.dir, fmt.Sprintf("v%06d.rtf", v)))
	}
	return removed, nil
}
