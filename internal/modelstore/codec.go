// Package modelstore is the model-lifecycle subsystem of CrowdRTSE: a
// deterministic, checksummed binary snapshot codec for fitted RTF models —
// the one model file format (WriteFile, and ReadFile, which refuses a model
// fitted on another topology) — a versioned on-disk Store with atomic
// publication, GC and rollback, a validation gate that refuses corrupt or
// likelihood-regressing candidates, and a Manager/Refitter pair that folds
// streamed crowd reports into background refits and hot-swaps the result
// into a serving core.System with zero downtime (RCU semantics — in-flight
// queries finish on the model they started with).
//
// The paper fits the RTF offline once and serves it forever (§IV); a
// production deployment must instead treat the fitted model as a versioned,
// validated, swappable artifact. This package is that checkpoint-management
// layer.
package modelstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"

	"repro/internal/network"
	"repro/internal/rtf"
	"repro/internal/tslot"
)

// Snapshot wire format (version 1), little-endian throughout:
//
//	magic      [8]byte  "RTFSNP01"
//	version    uint16   codec version (1)
//	slots      uint16   tslot.PerDay at encode time (288)
//	roads      uint32   |R|
//	edges      uint32   |E|
//	topoHash   uint64   FNV-1a 64 of (roads, canonical edge list)
//	metaLen    uint32   length of the JSON-encoded Meta
//	meta       []byte
//	headerCRC  uint32   IEEE CRC32 of every byte above
//	4 sections, in fixed order (edges, μ, σ, ρ), each:
//	  id         uint8   1=edges 2=mu 3=sigma 4=rho
//	  payloadLen uint64
//	  payload    []byte  (edges: pairs of uint32; params: float64 bits,
//	                      slot-major)
//	  crc        uint32  IEEE CRC32 of the payload
//	EOF — trailing bytes are a decode error.
//
// Every field is written in a fixed order with fixed-width encodings, so
// encoding the same model with the same Meta is byte-for-byte deterministic
// (snapshots diff and dedupe cleanly).
const (
	codecVersion = 1
	magicLen     = 8

	secEdges = 1
	secMu    = 2
	secSigma = 3
	secRho   = 4

	// maxRoads / maxEdges bound header-driven allocations so a corrupt or
	// adversarial header cannot make the decoder allocate unbounded memory
	// before the CRC check has a chance to fire.
	maxRoads = 1 << 22
	maxEdges = 1 << 24
)

var magic = [magicLen]byte{'R', 'T', 'F', 'S', 'N', 'P', '0', '1'}

// Codec error categories, matchable with errors.Is.
var (
	// ErrBadMagic: the file does not start with the snapshot magic.
	ErrBadMagic = errors.New("modelstore: not an RTF snapshot (bad magic)")
	// ErrChecksum: a section or header checksum mismatched — the file is
	// corrupt (bit flip, torn write) and must not be loaded.
	ErrChecksum = errors.New("modelstore: checksum mismatch")
	// ErrTruncated: the file ended before the declared structure did.
	ErrTruncated = errors.New("modelstore: truncated snapshot")
	// ErrTopologyMismatch: the snapshot was fitted on a different network
	// topology than the one it is being loaded for.
	ErrTopologyMismatch = errors.New("modelstore: topology hash mismatch")
	// ErrVersion: the codec version or slot grid is not supported.
	ErrVersion = errors.New("modelstore: unsupported snapshot version")
)

// Meta is the fit metadata carried inside a snapshot. It is JSON inside the
// binary envelope so future fields extend without a codec-version bump.
type Meta struct {
	// CreatedAtUnix is the fit wall-time (seconds). Part of the snapshot
	// bytes, so set it explicitly for reproducible output.
	CreatedAtUnix int64 `json:"created_at_unix"`
	// Source records how the model was produced: "offline-fit", "refit",
	// "cli", ...
	Source string `json:"source,omitempty"`
	// Note is a free-form operator annotation.
	Note string `json:"note,omitempty"`
	// Parent is the store version this model was derived from (refits).
	Parent uint64 `json:"parent,omitempty"`
	// HoldoutLL is the mean holdout log-likelihood recorded by the gate at
	// publication time, 0 when not gated.
	HoldoutLL float64 `json:"holdout_ll,omitempty"`
}

// Header is the decoded snapshot header.
type Header struct {
	Version  int
	Slots    int
	Roads    int
	Edges    int
	TopoHash uint64
}

// TopologyHash fingerprints a road network topology: FNV-1a 64 over the road
// count and the canonical (sorted, u<v) edge list. A snapshot records the
// hash of the network it was fitted on; loading it against a different
// topology is refused.
func TopologyHash(n int, edges [][2]int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(n))
	h.Write(buf[:4])
	for _, e := range edges {
		binary.LittleEndian.PutUint32(buf[:4], uint32(e[0]))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e[1]))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// NetworkTopologyHash is TopologyHash applied to a live network.
func NetworkTopologyHash(net *network.Network) uint64 {
	return TopologyHash(net.N(), net.Graph().EdgeList())
}

// ModelTopologyHash is TopologyHash applied to a fitted model.
func ModelTopologyHash(m *rtf.Model) uint64 {
	return TopologyHash(m.N(), m.Edges())
}

// Encode writes the model as a version-1 snapshot. The output is
// deterministic for a given (model, meta) pair.
func Encode(w io.Writer, m *rtf.Model, meta Meta) error {
	if m == nil {
		return fmt.Errorf("modelstore: encode nil model")
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("modelstore: encode meta: %w", err)
	}
	edges := m.Edges()

	var hdr bytes.Buffer
	hdr.Write(magic[:])
	le := binary.LittleEndian
	var u16 [2]byte
	var u32 [4]byte
	var u64b [8]byte
	le.PutUint16(u16[:], codecVersion)
	hdr.Write(u16[:])
	le.PutUint16(u16[:], uint16(tslot.PerDay))
	hdr.Write(u16[:])
	le.PutUint32(u32[:], uint32(m.N()))
	hdr.Write(u32[:])
	le.PutUint32(u32[:], uint32(len(edges)))
	hdr.Write(u32[:])
	le.PutUint64(u64b[:], ModelTopologyHash(m))
	hdr.Write(u64b[:])
	le.PutUint32(u32[:], uint32(len(metaJSON)))
	hdr.Write(u32[:])
	hdr.Write(metaJSON)
	le.PutUint32(u32[:], crc32.ChecksumIEEE(hdr.Bytes()))
	hdr.Write(u32[:])
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}

	// Edge section.
	edgeBuf := make([]byte, 8*len(edges))
	for i, e := range edges {
		le.PutUint32(edgeBuf[8*i:], uint32(e[0]))
		le.PutUint32(edgeBuf[8*i+4:], uint32(e[1]))
	}
	if err := writeSection(w, secEdges, edgeBuf); err != nil {
		return err
	}

	// Parameter sections, slot-major.
	n, ne := m.N(), len(edges)
	muBuf := make([]byte, 8*tslot.PerDay*n)
	sigmaBuf := make([]byte, 8*tslot.PerDay*n)
	rhoBuf := make([]byte, 8*tslot.PerDay*ne)
	for t := tslot.Slot(0); t < tslot.PerDay; t++ {
		v := m.At(t)
		for i, x := range v.Mu {
			le.PutUint64(muBuf[8*(int(t)*n+i):], math.Float64bits(x))
		}
		for i, x := range v.Sigma {
			le.PutUint64(sigmaBuf[8*(int(t)*n+i):], math.Float64bits(x))
		}
		for i, x := range v.Rho {
			le.PutUint64(rhoBuf[8*(int(t)*ne+i):], math.Float64bits(x))
		}
	}
	for _, sec := range []struct {
		id  uint8
		buf []byte
	}{{secMu, muBuf}, {secSigma, sigmaBuf}, {secRho, rhoBuf}} {
		if err := writeSection(w, sec.id, sec.buf); err != nil {
			return err
		}
	}
	return nil
}

func writeSection(w io.Writer, id uint8, payload []byte) error {
	var hdr [9]byte
	hdr[0] = id
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(crc[:])
	return err
}

// Decode reads a snapshot, verifying the header and every section checksum.
// The returned model passed rtf.FromParams validation (finite, in-range
// parameters). Use DecodeVerify when the target topology is known.
func Decode(r io.Reader) (*rtf.Model, Meta, Header, error) {
	var meta Meta
	var hd Header

	crcHdr := crc32.NewIEEE()
	tr := io.TeeReader(r, crcHdr)

	var mg [magicLen]byte
	if err := readFull(tr, mg[:]); err != nil {
		return nil, meta, hd, err
	}
	if mg != magic {
		return nil, meta, hd, ErrBadMagic
	}
	var fixed [20]byte
	if err := readFull(tr, fixed[:]); err != nil {
		return nil, meta, hd, err
	}
	le := binary.LittleEndian
	hd.Version = int(le.Uint16(fixed[0:2]))
	hd.Slots = int(le.Uint16(fixed[2:4]))
	hd.Roads = int(le.Uint32(fixed[4:8]))
	hd.Edges = int(le.Uint32(fixed[8:12]))
	hd.TopoHash = le.Uint64(fixed[12:20])
	if hd.Version != codecVersion {
		return nil, meta, hd, fmt.Errorf("%w: codec version %d (have %d)", ErrVersion, hd.Version, codecVersion)
	}
	if hd.Slots != tslot.PerDay {
		return nil, meta, hd, fmt.Errorf("%w: %d slots per day (have %d)", ErrVersion, hd.Slots, tslot.PerDay)
	}
	if hd.Roads > maxRoads || hd.Edges > maxEdges {
		return nil, meta, hd, fmt.Errorf("modelstore: implausible header (%d roads, %d edges)", hd.Roads, hd.Edges)
	}
	var u32 [4]byte
	if err := readFull(tr, u32[:]); err != nil {
		return nil, meta, hd, err
	}
	metaLen := int(le.Uint32(u32[:]))
	if metaLen > 1<<20 {
		return nil, meta, hd, fmt.Errorf("modelstore: implausible meta length %d", metaLen)
	}
	metaJSON := make([]byte, metaLen)
	if err := readFull(tr, metaJSON); err != nil {
		return nil, meta, hd, err
	}
	wantHdrCRC := crcHdr.Sum32()
	if err := readFull(r, u32[:]); err != nil { // CRC itself is not hashed
		return nil, meta, hd, err
	}
	if le.Uint32(u32[:]) != wantHdrCRC {
		return nil, meta, hd, fmt.Errorf("%w: header", ErrChecksum)
	}
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return nil, meta, hd, fmt.Errorf("modelstore: meta: %w", err)
	}

	edgePayload, err := readSection(r, secEdges, 8*hd.Edges)
	if err != nil {
		return nil, meta, hd, err
	}
	edges := make([][2]int, hd.Edges)
	for i := range edges {
		edges[i][0] = int(le.Uint32(edgePayload[8*i:]))
		edges[i][1] = int(le.Uint32(edgePayload[8*i+4:]))
	}
	readParam := func(id uint8, per int) ([][]float64, error) {
		payload, err := readSection(r, id, 8*tslot.PerDay*per)
		if err != nil {
			return nil, err
		}
		out := make([][]float64, tslot.PerDay)
		for t := 0; t < tslot.PerDay; t++ {
			row := make([]float64, per)
			for i := range row {
				row[i] = math.Float64frombits(le.Uint64(payload[8*(t*per+i):]))
			}
			out[t] = row
		}
		return out, nil
	}
	mu, err := readParam(secMu, hd.Roads)
	if err != nil {
		return nil, meta, hd, err
	}
	sigma, err := readParam(secSigma, hd.Roads)
	if err != nil {
		return nil, meta, hd, err
	}
	rho, err := readParam(secRho, hd.Edges)
	if err != nil {
		return nil, meta, hd, err
	}
	// Strict framing: nothing may trail the last section.
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); err != io.EOF {
		return nil, meta, hd, fmt.Errorf("modelstore: trailing bytes after final section")
	}

	m, err := rtf.FromParams(hd.Roads, edges, mu, sigma, rho)
	if err != nil {
		return nil, meta, hd, fmt.Errorf("modelstore: invalid parameters: %w", err)
	}
	if got := ModelTopologyHash(m); got != hd.TopoHash {
		return nil, meta, hd, fmt.Errorf("%w: header says %016x, edges hash to %016x", ErrTopologyMismatch, hd.TopoHash, got)
	}
	return m, meta, hd, nil
}

// DecodeVerify decodes and additionally refuses a snapshot whose topology
// hash differs from wantTopo — the serving-path guard that a model fitted on
// yesterday's network never loads onto today's.
func DecodeVerify(r io.Reader, wantTopo uint64) (*rtf.Model, Meta, Header, error) {
	m, meta, hd, err := Decode(r)
	if err != nil {
		return nil, meta, hd, err
	}
	if hd.TopoHash != wantTopo {
		return nil, meta, hd, fmt.Errorf("%w: snapshot %016x, want %016x", ErrTopologyMismatch, hd.TopoHash, wantTopo)
	}
	return m, meta, hd, nil
}

// readSection reads one section, enforcing the expected id and payload
// length and verifying the payload CRC.
func readSection(r io.Reader, wantID uint8, wantLen int) ([]byte, error) {
	var hdr [9]byte
	if err := readFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != wantID {
		return nil, fmt.Errorf("modelstore: section id %d, want %d", hdr[0], wantID)
	}
	n := binary.LittleEndian.Uint64(hdr[1:])
	if n != uint64(wantLen) {
		return nil, fmt.Errorf("modelstore: section %d payload %d bytes, want %d", wantID, n, wantLen)
	}
	payload := make([]byte, wantLen)
	if err := readFull(r, payload); err != nil {
		return nil, err
	}
	var crc [4]byte
	if err := readFull(r, crc[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("%w: section %d", ErrChecksum, wantID)
	}
	return payload, nil
}

// readFull wraps io.ReadFull, mapping short reads onto ErrTruncated.
func readFull(r io.Reader, buf []byte) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		return err
	}
	return nil
}
