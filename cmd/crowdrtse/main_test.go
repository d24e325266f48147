package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/modelstore"
)

// TestPipelineEndToEnd drives datagen → train → query on a small dataset,
// exercising the whole CLI surface except serve (covered by internal/server
// tests).
func TestPipelineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	modelPath := filepath.Join(dir, "model.rtf")

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
	raw, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatalf("model missing: %v", err)
	}
	if _, meta, _, err := modelstore.Decode(bytes.NewReader(raw)); err != nil || meta.Source != "offline-fit" {
		t.Fatalf("train wrote no snapshot: meta %+v, %v", meta, err)
	}
	if err := run([]string{"query", "-data", dataDir, "-days", "6", "-model", modelPath,
		"-slot", "100", "-roads", "1,5,9", "-budget", "10"}); err != nil {
		t.Fatalf("query: %v", err)
	}
}

// TestQuerySelector runs query under the selector names it shares with the
// HTTP routes, and checks the ones it refuses.
func TestQuerySelector(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	modelPath := filepath.Join(dir, "model.rtf")
	if err := run([]string{"datagen", "-out", dataDir, "-roads", "30", "-days", "4", "-seed", "5"}); err != nil {
		t.Fatalf("datagen: %v", err)
	}
	if err := run([]string{"train", "-data", dataDir, "-days", "4", "-out", modelPath}); err != nil {
		t.Fatalf("train: %v", err)
	}
	query := func(sel string) error {
		return run([]string{"query", "-data", dataDir, "-days", "4", "-model", modelPath,
			"-slot", "100", "-roads", "1,5,9", "-budget", "8", "-selector", sel})
	}
	for _, sel := range []string{"VarMin", "VarianceMin", "OBJ", "Random"} {
		if err := query(sel); err != nil {
			t.Errorf("query -selector %s: %v", sel, err)
		}
	}
	// RouteVar weighs roads by a planned route, which query does not have.
	if err := query("RouteVar"); err == nil || !strings.Contains(err.Error(), "/v1/route") {
		t.Errorf("query -selector RouteVar: %v, want a refusal naming /v1/route", err)
	}
	if err := query("zzz"); err == nil || !strings.Contains(err.Error(), `unknown selector "zzz"`) {
		t.Errorf("query -selector zzz: %v, want unknown selector", err)
	}
}

// TestModelSubcommands drives the snapshot-store CLI: train a model, publish
// it twice, list, load-verify with a model-file export, and roll back.
func TestModelSubcommands(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	modelPath := filepath.Join(dir, "model.rtf")
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
	exported := filepath.Join(dir, "exported.rtf")
	if err := run([]string{"model", "load", "-store", storeDir, "-out", exported}); err != nil {
		t.Fatalf("model load: %v", err)
	}
	raw, err := os.ReadFile(exported)
	if err != nil {
		t.Fatalf("exported model missing: %v", err)
	}
	if _, meta, _, err := modelstore.Decode(bytes.NewReader(raw)); err != nil || meta.Note != "cli test" {
		t.Fatalf("exported model is no snapshot of the stored version: meta %+v, %v", meta, err)
	}
	// The export is a model file like train's: query reads it.
	if err := run([]string{"query", "-data", dataDir, "-days", "4", "-model", exported,
		"-slot", "100", "-roads", "1,5,9", "-budget", "8"}); err != nil {
		t.Fatalf("query on the exported model: %v", err)
	}
	if err := run([]string{"model", "rollback", "-store", storeDir}); err != nil {
		t.Fatalf("model rollback: %v", err)
	}
	// Only one version to roll back from — a second rollback must fail.
	if err := run([]string{"model", "rollback", "-store", storeDir}); err == nil {
		t.Error("rollback past the oldest version succeeded")
	}
	// A model trained on another 30-road topology is refused by every
	// command that reads a model file, before anything is published or
	// served — and so is a store whose current version is such a model.
	// serve gets an address it cannot listen on, so a missing refusal fails
	// instead of serving.
	otherData := filepath.Join(dir, "other")
	otherModel := filepath.Join(dir, "other.rtf")
	if err := run([]string{"datagen", "-out", otherData, "-roads", "30", "-days", "4", "-seed", "99"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"train", "-data", otherData, "-days", "4", "-out", otherModel}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"model", "save", "-data", dataDir, "-days", "4", "-model", otherModel, "-store", storeDir},
		{"query", "-data", dataDir, "-days", "4", "-model", otherModel, "-slot", "100", "-roads", "9", "-budget", "8"},
		{"serve", "-data", dataDir, "-days", "4", "-model", otherModel, "-addr", "127.0.0.1:-1"},
		{"serve", "-data", otherData, "-days", "4", "-store", storeDir, "-addr", "127.0.0.1:-1"},
	} {
		if err := run(args); !errors.Is(err, modelstore.ErrTopologyMismatch) {
			t.Errorf("%s: %v, want ErrTopologyMismatch", strings.Join(args, " "), err)
		}
	}
	store, err := modelstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(store.Versions()); n != 2 {
		t.Errorf("store holds %d versions after the refused save, want 2", n)
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
