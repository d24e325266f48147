package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/modelstore"
	"repro/internal/network"
	"repro/internal/rtf"
	"repro/internal/speedgen"
)

// writeTrained lays out what `crowdrtse datagen` and `crowdrtse train` leave
// behind for a 30-road network: dir/network.json and dir/model.rtf, the
// moment fit saved as a snapshot. It returns the model path.
func writeTrained(t *testing.T, dir string, seed int64) string {
	t.Helper()
	net := network.Synthetic(network.SyntheticOptions{Roads: 30, Seed: seed, CostMax: 5})
	hist, err := speedgen.Generate(net, speedgen.Default(4, seed+1))
	if err != nil {
		t.Fatal(err)
	}
	model := rtf.New(net)
	if err := rtf.FitMoments(model, hist, 1); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	nf, err := os.Create(filepath.Join(dir, "network.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	if err := net.WriteJSON(nf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "model.rtf")
	if err := modelstore.WriteFile(path, model, modelstore.Meta{Source: "offline-fit"}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportSummaryAndProfile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	model := writeTrained(t, dir, 5)

	var out bytes.Buffer
	if err := run([]string{"-data", dir, "-model", model, "-slot", "100"}, &out); err != nil {
		t.Fatalf("summary: %v", err)
	}
	for _, want := range []string{"network: 30 roads", "slot 08:20 (100):", "sigma", "rho"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"-data", dir, "-model", model, "-roads", "9"}, &out); err != nil {
		t.Fatalf("profile: %v", err)
	}
	if !strings.HasPrefix(out.String(), "road 9 ") || !strings.Contains(out.String(), "neighbors at") {
		t.Errorf("profile of road 9:\n%s", out.String())
	}
	// The fit clamps every ρ to at least rtf.RhoMin, so a neighbour printed
	// at 0.00 is a road pair the model does not know.
	if strings.Contains(out.String(), "(rho 0.00)") {
		t.Errorf("profile shows a neighbour the model has no edge for:\n%s", out.String())
	}
}

// TestReportRefusesOtherTopology loads a model trained on another 30-road
// network: same road count, other edges. It must be refused before anything
// is printed.
func TestReportRefusesOtherTopology(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "data")
	writeTrained(t, dir, 5)
	other := writeTrained(t, filepath.Join(root, "other"), 99)

	var out bytes.Buffer
	err := run([]string{"-data", dir, "-model", other, "-roads", "9"}, &out)
	if !errors.Is(err, modelstore.ErrTopologyMismatch) {
		t.Fatalf("other-topology model: err = %v, want ErrTopologyMismatch", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed before refusing:\n%s", out.String())
	}
}
