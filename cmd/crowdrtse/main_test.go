package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPipelineEndToEnd drives datagen → train → query on a small dataset,
// exercising the whole CLI surface except serve (covered by internal/server
// tests).
func TestPipelineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	modelPath := filepath.Join(dir, "model.gob")

	if err := run([]string{"datagen", "-out", dataDir, "-roads", "40", "-days", "6", "-seed", "3"}); err != nil {
		t.Fatalf("datagen: %v", err)
	}
	for _, f := range []string{"network.json", "history.csv"} {
		if _, err := os.Stat(filepath.Join(dataDir, f)); err != nil {
			t.Fatalf("datagen output missing %s: %v", f, err)
		}
	}
	if err := run([]string{"train", "-data", dataDir, "-days", "6", "-out", modelPath}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := os.Stat(modelPath); err != nil {
		t.Fatalf("model missing: %v", err)
	}
	if err := run([]string{"query", "-data", dataDir, "-days", "6", "-model", modelPath,
		"-slot", "100", "-roads", "1,5,9", "-budget", "10"}); err != nil {
		t.Fatalf("query: %v", err)
	}
}

// TestModelSubcommands drives the snapshot-store CLI: train a model, publish
// it twice, list, load-verify with gob re-export, and roll back.
func TestModelSubcommands(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	modelPath := filepath.Join(dir, "model.gob")
	storeDir := filepath.Join(dir, "store")

	if err := run([]string{"datagen", "-out", dataDir, "-roads", "30", "-days", "4", "-seed", "5"}); err != nil {
		t.Fatalf("datagen: %v", err)
	}
	if err := run([]string{"train", "-data", dataDir, "-days", "4", "-out", modelPath}); err != nil {
		t.Fatalf("train: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := run([]string{"model", "save", "-data", dataDir, "-days", "4",
			"-model", modelPath, "-store", storeDir, "-note", "cli test"}); err != nil {
			t.Fatalf("model save #%d: %v", i+1, err)
		}
	}
	if _, err := os.Stat(filepath.Join(storeDir, "v000001.rtf")); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	if err := run([]string{"model", "list", "-store", storeDir}); err != nil {
		t.Fatalf("model list: %v", err)
	}
	exported := filepath.Join(dir, "exported.gob")
	if err := run([]string{"model", "load", "-store", storeDir, "-out", exported}); err != nil {
		t.Fatalf("model load: %v", err)
	}
	if _, err := os.Stat(exported); err != nil {
		t.Fatalf("exported gob missing: %v", err)
	}
	if err := run([]string{"model", "rollback", "-store", storeDir}); err != nil {
		t.Fatalf("model rollback: %v", err)
	}
	// Only one version to roll back from — a second rollback must fail.
	if err := run([]string{"model", "rollback", "-store", storeDir}); err == nil {
		t.Error("rollback past the oldest version succeeded")
	}
	// Saving a model trained on a different topology must be refused.
	otherData := filepath.Join(dir, "other")
	otherModel := filepath.Join(dir, "other.gob")
	if err := run([]string{"datagen", "-out", otherData, "-roads", "30", "-days", "4", "-seed", "99"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"train", "-data", otherData, "-days", "4", "-out", otherModel}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"model", "save", "-data", dataDir, "-days", "4",
		"-model", otherModel, "-store", storeDir}); err == nil {
		t.Error("wrong-topology model published")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("empty args accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"datagen"}); err == nil {
		t.Error("datagen without -out accepted")
	}
	if err := run([]string{"train"}); err == nil {
		t.Error("train without -data accepted")
	}
	if err := run([]string{"query"}); err == nil {
		t.Error("query without -data accepted")
	}
	if err := run([]string{"serve"}); err == nil {
		t.Error("serve without -data accepted")
	}
	// Refused before any file is read: the paths need not exist.
	if err := run([]string{"serve", "-data", "missing", "-shards", "2", "-store", "missing"}); err == nil ||
		!strings.Contains(err.Error(), "-shards with -store") {
		t.Errorf("serve -shards -store: %v, want the refusal", err)
	}
	if err := run([]string{"model"}); err == nil {
		t.Error("bare model subcommand accepted")
	}
	if err := run([]string{"model", "frobnicate"}); err == nil {
		t.Error("unknown model subcommand accepted")
	}
	if err := run([]string{"model", "save"}); err == nil {
		t.Error("model save without flags accepted")
	}
	if err := run([]string{"model", "load"}); err == nil {
		t.Error("model load without -store accepted")
	}
	if err := run([]string{"model", "list"}); err == nil {
		t.Error("model list without -store accepted")
	}
	if err := run([]string{"model", "rollback"}); err == nil {
		t.Error("model rollback without -store accepted")
	}
}

func TestParseRoads(t *testing.T) {
	got, err := parseRoads("1, 2,3", 10)
	if err != nil || len(got) != 3 || got[2] != 3 {
		t.Errorf("parseRoads = %v, %v", got, err)
	}
	if _, err := parseRoads("x", 10); err == nil {
		t.Error("bad id accepted")
	}
	if _, err := parseRoads("99", 10); err == nil {
		t.Error("out-of-range id accepted")
	}
}

func TestParseSelectorName(t *testing.T) {
	for _, name := range []string{"Hybrid", "Ratio", "OBJ", "Objective", "Rand", "Random"} {
		if _, err := parseSelectorName(name); err != nil {
			t.Errorf("parseSelectorName(%q): %v", name, err)
		}
	}
	if _, err := parseSelectorName("zzz"); err == nil {
		t.Error("unknown selector accepted")
	}
}
