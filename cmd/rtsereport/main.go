// Command rtsereport inspects a trained CrowdRTSE model snapshot from the
// terminal; a model fitted on another network topology is refused:
//
//	rtsereport -data DIR -model model.rtf [-slot T]              network summary
//	rtsereport -data DIR -model model.rtf [-slot T] -roads 3,17  per-road profiles
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/modelstore"
	"repro/internal/network"
	"repro/internal/report"
	"repro/internal/tslot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rtsereport:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rtsereport", flag.ContinueOnError)
	data := fs.String("data", "", "data directory from crowdrtse datagen (required)")
	modelPath := fs.String("model", "model.rtf", "trained model snapshot path")
	slotN := fs.Int("slot", 102, "time slot for slot-specific statistics")
	roadsRaw := fs.String("roads", "", "comma-separated road ids to profile (default: summary)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("-data is required")
	}
	slot := tslot.Slot(*slotN)
	if !slot.Valid() {
		return fmt.Errorf("slot %d out of range [0,%d)", *slotN, tslot.PerDay)
	}

	nf, err := os.Open(filepath.Join(*data, "network.json"))
	if err != nil {
		return err
	}
	defer nf.Close()
	net, err := network.ReadJSON(nf)
	if err != nil {
		return err
	}
	model, err := modelstore.ReadFile(*modelPath, net)
	if err != nil {
		return err
	}

	if *roadsRaw == "" {
		return report.Summary(out, net, model, slot)
	}
	for _, part := range strings.Split(*roadsRaw, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad road id %q", part)
		}
		if err := report.RoadProfile(out, net, model, id, slot); err != nil {
			return err
		}
	}
	return nil
}
