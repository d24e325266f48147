// Command crowdrtse is the CrowdRTSE toolchain:
//
//	crowdrtse datagen -out DIR [-roads N] [-days D] [-seed S] [-costmax C]
//	    generate a synthetic network (network.json) and historical record
//	    (history.csv)
//	crowdrtse train -data DIR -out model.gob [-days D] [-window W]
//	    fit the RTF model offline and save it
//	crowdrtse query -data DIR -model model.gob -slot T -roads 1,2,3
//	    [-budget K] [-theta θ] [-selector Hybrid] [-days D]
//	    [-resilient] [-deadline 2s] [-rounds 3]
//	    [-dropout 0.3] [-blackouts 5,9] [-late 0.1] [-stale 0.05] [-garbage 0.02]
//	    run the online pipeline (OCS → probe → GSP) against the last
//	    recorded day as ground truth and print the estimates; with
//	    -resilient (implied by any fault flag) the query runs the
//	    fault-tolerant policy (a task campaign with -rounds re-selection
//	    rounds) under the injected faults and reports its degradation
//	    diagnostics
//	crowdrtse serve -data DIR -model model.gob [-addr :8080] [-days D]
//	    [-timeout 5s] [-store DIR] [-refit 5m] [-alpha 0.1]
//	    [-report-horizon 72]
//	    [-qos] [-tenant key=K,name=N,class=C,rps=R,quota=Q]...
//	    [-max-inflight N] [-latency-target D] [-no-anonymous]
//	    serve the HTTP estimation API; with -store the model-lifecycle
//	    subsystem is active: the serving model comes from the store's
//	    current version (bootstrapping it from -model on first run),
//	    streamed /v1/report data is folded into validated background
//	    refits every -refit interval, and /v1/model exposes the version
//	    history plus reload/rollback/refit actions; with -qos (implied by
//	    any -tenant) multi-tenant admission control is active: API keys
//	    resolve to tenants with token-bucket rate limits, probe-budget
//	    quotas and priority classes, and under pressure requests step down
//	    the QoS degradation ladder or shed with 429 + Retry-After; with
//	    -shards N the network is partitioned into N halo-stitched shards
//	    whose per-shard oracle-cache state shows up on /v1/healthz and
//	    /v1/metrics; no request is served through the sharded engine yet,
//	    so those caches stay cold
//	crowdrtse model <save|load|list|rollback> [flags]
//	    manage the versioned snapshot store directly:
//	    save -data DIR -model model.gob -store DIR [-note TEXT]
//	        validate a gob model against the network and publish it as a
//	        new checksummed store version
//	    load -store DIR [-version N] [-out model.gob]
//	        decode + verify a stored version (0 = current) and optionally
//	        re-export it as gob
//	    list -store DIR
//	        print the version history and the current pointer
//	    rollback -store DIR
//	        repoint the store's current version to the previous one
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/faults"
	"repro/internal/modelstore"
	"repro/internal/network"
	"repro/internal/qos"
	"repro/internal/rtf"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "crowdrtse:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: crowdrtse <datagen|train|query|serve|model> [flags]")
	}
	switch args[0] {
	case "datagen":
		return cmdDatagen(args[1:])
	case "train":
		return cmdTrain(args[1:])
	case "query":
		return cmdQuery(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "model":
		return cmdModel(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func cmdDatagen(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	out := fs.String("out", "", "output directory (required)")
	roads := fs.Int("roads", 607, "number of roads")
	days := fs.Int("days", 30, "days of history")
	seed := fs.Int64("seed", 1, "generator seed")
	costMax := fs.Int("costmax", 5, "road costs drawn uniformly from [1,costmax]")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("datagen: -out is required")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	net := network.Synthetic(network.SyntheticOptions{
		Roads: *roads, Seed: *seed, CostMax: *costMax,
	})
	hist, err := speedgen.Generate(net, speedgen.Default(*days, *seed+1))
	if err != nil {
		return err
	}
	nf, err := os.Create(filepath.Join(*out, "network.json"))
	if err != nil {
		return err
	}
	defer nf.Close()
	if err := net.WriteJSON(nf); err != nil {
		return err
	}
	hf, err := os.Create(filepath.Join(*out, "history.csv"))
	if err != nil {
		return err
	}
	defer hf.Close()
	if err := hist.WriteCSV(hf); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d roads, %d edges, %d days, %d records\n",
		*out, net.N(), net.M(), *days, hist.Records())
	return nil
}

// loadData reads network.json and history.csv from dir.
func loadData(dir string, days int) (*network.Network, *speedgen.History, error) {
	nf, err := os.Open(filepath.Join(dir, "network.json"))
	if err != nil {
		return nil, nil, err
	}
	defer nf.Close()
	net, err := network.ReadJSON(nf)
	if err != nil {
		return nil, nil, err
	}
	hf, err := os.Open(filepath.Join(dir, "history.csv"))
	if err != nil {
		return nil, nil, err
	}
	defer hf.Close()
	hist, err := speedgen.ReadCSV(hf, net.N(), days)
	if err != nil {
		return nil, nil, err
	}
	return net, hist, nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	data := fs.String("data", "", "data directory from datagen (required)")
	out := fs.String("out", "model.gob", "output model path")
	days := fs.Int("days", 30, "days recorded in history.csv")
	window := fs.Int("window", 1, "slot pooling window for fitting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("train: -data is required")
	}
	net, hist, err := loadData(*data, *days)
	if err != nil {
		return err
	}
	model := rtf.New(net)
	if err := rtf.FitMoments(model, hist, *window); err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := model.Write(f); err != nil {
		return err
	}
	fmt.Printf("trained RTF on %d roads × %d days → %s\n", net.N(), *days, *out)
	return nil
}

// loadSystem loads data + model into a queryable system.
func loadSystem(data, modelPath string, days int) (*core.System, *speedgen.History, error) {
	net, hist, err := loadData(data, days)
	if err != nil {
		return nil, nil, err
	}
	mf, err := os.Open(modelPath)
	if err != nil {
		return nil, nil, err
	}
	defer mf.Close()
	model, err := rtf.Read(mf)
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.NewFromModel(net, model, core.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	return sys, hist, nil
}

func parseRoads(raw string, n int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(raw, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad road id %q", part)
		}
		if id < 0 || id >= n {
			return nil, fmt.Errorf("road %d out of range [0,%d)", id, n)
		}
		out = append(out, id)
	}
	return out, nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	data := fs.String("data", "", "data directory (required)")
	modelPath := fs.String("model", "model.gob", "trained model path")
	days := fs.Int("days", 30, "days recorded in history.csv")
	slotN := fs.Int("slot", 102, "time slot [0,288)")
	roadsRaw := fs.String("roads", "", "comma-separated queried road ids (required)")
	budget := fs.Int("budget", 30, "crowdsourcing budget K")
	theta := fs.Float64("theta", 0.92, "redundancy threshold")
	selName := fs.String("selector", "Hybrid", "Hybrid | Ratio | OBJ | Rand")
	seed := fs.Int64("seed", 1, "probe/selector seed")
	resilient := fs.Bool("resilient", false, "use the fault-tolerant policy: a task campaign with re-selection rounds")
	deadline := fs.Duration("deadline", 0, "per-query deadline (0 = none)")
	rounds := fs.Int("rounds", 3, "max OCS re-selection rounds (resilient mode)")
	dropout := fs.Float64("dropout", 0, "inject: worker dropout probability")
	blackoutsRaw := fs.String("blackouts", "", "inject: comma-separated blackout road ids")
	late := fs.Float64("late", 0, "inject: probability an answer misses the round deadline")
	staleP := fs.Float64("stale", 0, "inject: probability an answer reports the previous slot")
	garbage := fs.Float64("garbage", 0, "inject: probability of an adversarial garbage answer")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" || *roadsRaw == "" {
		return fmt.Errorf("query: -data and -roads are required")
	}
	sys, hist, err := loadSystem(*data, *modelPath, *days)
	if err != nil {
		return err
	}
	query, err := parseRoads(*roadsRaw, sys.Network().N())
	if err != nil {
		return err
	}
	slot := tslot.Slot(*slotN)
	sel, err := parseSelectorName(*selName)
	if err != nil {
		return err
	}
	day := hist.Days - 1
	pool := crowd.PlaceEverywhere(sys.Network())
	truth := func(r int) float64 { return hist.At(day, slot, r) }

	anyFault := *dropout > 0 || *blackoutsRaw != "" || *late > 0 || *staleP > 0 || *garbage > 0
	if !*resilient && !anyFault && *deadline == 0 {
		res, err := sys.Query(context.Background(), core.QueryRequest{
			Slot: slot, Roads: query, Budget: *budget, Theta: *theta,
			Workers:  pool,
			Selector: sel, Seed: *seed,
			Probe: crowd.ProbeConfig{NoiseSD: 0.02, Seed: *seed},
			Truth: truth,
		})
		if err != nil {
			return err
		}
		fmt.Printf("slot %s (%d), budget %d, theta %.2f, selector %s\n",
			slot, slot, *budget, *theta, sel)
		fmt.Printf("crowdsourced roads (cost %d/%d): %v\n", res.Ledger.Spent, *budget, res.Selected.Roads)
		printEstimates(query, res.QuerySpeeds, truth)
		return nil
	}

	// Resilient mode, optionally under injected faults.
	var blackouts []int
	if *blackoutsRaw != "" {
		if blackouts, err = parseRoads(*blackoutsRaw, sys.Network().N()); err != nil {
			return fmt.Errorf("blackouts: %w", err)
		}
	}
	inj, err := faults.New(faults.Config{
		Seed:        *seed,
		DropoutProb: *dropout,
		Blackouts:   blackouts,
		LatencyProb: *late,
		StaleProb:   *staleP,
		StaleLag:    1,
		History: func(r, lag int) float64 {
			return hist.At(day, slot.Add(-lag), r)
		},
		GarbageProb: *garbage,
	})
	if err != nil {
		return err
	}
	campCfg := inj.WrapCampaign(crowd.DefaultCampaign(*seed))
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	res, err := sys.Query(ctx, core.QueryRequest{
		Slot: slot, Roads: query, Budget: *budget, Theta: *theta,
		Workers:  inj.FilterPool(pool),
		Selector: sel, Seed: *seed,
		Campaign: &campCfg, Rounds: *rounds,
		Truth: inj.WrapTruth(truth),
	})
	if err != nil {
		return err
	}
	fmt.Printf("slot %s (%d), budget %d, theta %.2f, selector %s [resilient]\n",
		slot, slot, *budget, *theta, sel)
	fmt.Printf("rounds %d, spent %d/%d (recycled %d), tasks %d ok / %d partial / %d failed / %d late answers\n",
		res.Rounds, res.Ledger.Spent, *budget, res.BudgetRecycled,
		res.Campaign.Fulfilled, res.Campaign.Partial, res.Campaign.Failed, res.Campaign.Late)
	if len(res.AbandonedRoads) > 0 {
		fmt.Printf("abandoned roads: %v\n", res.AbandonedRoads)
	}
	if res.DeadlineHit {
		fmt.Println("deadline hit: estimates are best-so-far")
	}
	if res.Degraded {
		fmt.Println("DEGRADED: zero probes succeeded — estimates are the periodicity prior")
	}
	printEstimates(query, res.QuerySpeeds, truth)
	return nil
}

func printEstimates(query []int, est map[int]float64, truth func(int) float64) {
	fmt.Printf("%-6s %10s %10s %8s\n", "road", "estimate", "truth", "APE")
	ids := append([]int(nil), query...)
	sort.Ints(ids)
	for _, r := range ids {
		tv := truth(r)
		fmt.Printf("%-6d %10.2f %10.2f %7.1f%%\n", r, est[r], tv, 100*absf(est[r]-tv)/tv)
	}
}

func parseSelectorName(name string) (core.Selector, error) {
	switch name {
	case "Hybrid":
		return core.Hybrid, nil
	case "Ratio":
		return core.Ratio, nil
	case "OBJ", "Objective":
		return core.Objective, nil
	case "Rand", "Random":
		return core.RandomSel, nil
	default:
		return 0, fmt.Errorf("unknown selector %q", name)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	data := fs.String("data", "", "data directory (required)")
	modelPath := fs.String("model", "model.gob", "trained model path")
	days := fs.Int("days", 30, "days recorded in history.csv")
	addr := fs.String("addr", ":8080", "listen address")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request deadline (0 = none)")
	storeDir := fs.String("store", "", "snapshot store directory (enables the model lifecycle)")
	refitEvery := fs.Duration("refit", 5*time.Minute, "background refit interval (0 disables refits; needs -store)")
	alpha := fs.Float64("alpha", 0.1, "exponential-forgetting weight of a refit fold")
	horizon := fs.Int("report-horizon", 72, "collector eviction horizon in slots (0 = unbounded)")
	trace := fs.Bool("trace", false, "emit per-request stage spans (OCS/probe/GSP) as structured JSON logs on stderr, X-Request-ID correlated")
	pprofOn := fs.Bool("pprof", true, "mount the net/http/pprof surface under /debug/pprof/")
	qosOn := fs.Bool("qos", false, "enable multi-tenant admission control (implied by -tenant)")
	maxInFlight := fs.Int("max-inflight", 0, "concurrent requests treated as saturation (0 = qos default)")
	latencyTarget := fs.Duration("latency-target", 0, "p95 request latency the QoS ladder aims for (0 = qos default)")
	noAnon := fs.Bool("no-anonymous", false, "reject keyless requests with 401 instead of admitting them as the anonymous batch tenant")
	shardN := fs.Int("shards", 0, "build an N-shard halo-stitched engine and surface its per-shard state on /v1/healthz and /v1/metrics; no request is served through it yet, so its caches stay cold (0 = unsharded)")
	shardSeed := fs.Int64("shard-seed", 1, "partitioner seed (with -shards)")
	var tenants []qos.TenantConfig
	fs.Func("tenant", "tenant spec `key=K[,name=N,class=C,maxclass=C,rps=R,burst=B,quota=Q]` (repeatable; implies -qos)", func(spec string) error {
		tc, err := qos.ParseTenant(spec)
		if err != nil {
			return err
		}
		tenants = append(tenants, tc)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("serve: -data is required")
	}
	net, _, err := loadData(*data, *days)
	if err != nil {
		return err
	}

	var store *modelstore.Store
	var model *rtf.Model
	bootstrapped := false
	if *storeDir != "" {
		if store, err = modelstore.Open(*storeDir); err != nil {
			return err
		}
		if cur, ok := store.Current(); ok {
			// Serve whatever the store says is current.
			m, _, err := store.Load(cur.Version)
			if err != nil {
				return fmt.Errorf("serve: load store current v%d: %w", cur.Version, err)
			}
			model = m
			fmt.Printf("loaded model v%d from store %s\n", cur.Version, *storeDir)
		}
	}
	if model == nil {
		if model, err = readGobModel(*modelPath); err != nil {
			return err
		}
		bootstrapped = store != nil
	}
	sys, err := core.NewFromModel(net, model, core.DefaultConfig())
	if err != nil {
		return err
	}

	srv := server.New(sys)
	srv.Timeout = *timeout
	srv.Collector().SetHorizon(*horizon)
	srv.EnablePprof = *pprofOn
	if *trace {
		srv.TraceLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if *qosOn || len(tenants) > 0 {
		if err := srv.EnableQoS(qos.Config{
			Tenants:          tenants,
			DisableAnonymous: *noAnon,
			MaxInFlight:      *maxInFlight,
			LatencyTarget:    *latencyTarget,
		}); err != nil {
			return err
		}
		fmt.Printf("admission control on: %d tenant key(s), anonymous %s\n",
			len(tenants), map[bool]string{true: "rejected", false: "admitted as batch"}[*noAnon])
	}

	if *shardN > 0 {
		eng, err := shard.New(net, sys.Model(), shard.Config{Shards: *shardN, Seed: *shardSeed})
		if err != nil {
			return fmt.Errorf("serve: shards: %w", err)
		}
		srv.AttachShards(eng)
		reports := eng.Reports()
		halo := 0
		for _, r := range reports {
			halo += r.HaloRoads
		}
		fmt.Printf("sharded engine on: %d shards, %d halo road slots (seed %d)\n",
			len(reports), halo, *shardSeed)
	}

	if store != nil {
		mgr, err := modelstore.NewManager(sys, store, modelstore.GateConfig{})
		if err != nil {
			return err
		}
		if bootstrapped {
			// First run against an empty store: publish the offline fit as
			// v1 so rollback/reload have an anchor.
			info, _, err := mgr.Publish(model.Clone(), modelstore.Meta{
				Source: "offline-fit", Note: "serve bootstrap from " + *modelPath,
			}, nil)
			if err != nil {
				return fmt.Errorf("serve: bootstrap store: %w", err)
			}
			fmt.Printf("bootstrapped store %s with %s as v%d\n", *storeDir, *modelPath, info.Version)
		}
		var refitter *modelstore.Refitter
		if *refitEvery > 0 {
			cfg := modelstore.DefaultRefitter()
			cfg.Interval = *refitEvery
			cfg.Alpha = *alpha
			refitter, err = modelstore.NewRefitter(mgr, srv.Collector(), cfg)
			if err != nil {
				return err
			}
			refitter.Start()
			defer refitter.Stop()
			fmt.Printf("background refit every %s (alpha %.3g, holdout 1/%d)\n",
				*refitEvery, cfg.Alpha, cfg.HoldoutMod)
		}
		srv.AttachLifecycle(mgr, refitter)
	}

	fmt.Printf("serving CrowdRTSE API on %s (%d roads, %s request deadline)\n",
		*addr, sys.Network().N(), *timeout)
	fmt.Printf("metrics at %s/v1/metrics", *addr)
	if *pprofOn {
		fmt.Printf(", pprof at %s/debug/pprof/", *addr)
	}
	if *trace {
		fmt.Printf(", per-request span traces on stderr")
	}
	fmt.Println()
	return http.ListenAndServe(*addr, srv.Handler())
}

// readGobModel loads an offline-trained gob model from disk.
func readGobModel(path string) (*rtf.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rtf.Read(f)
}

func cmdModel(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: crowdrtse model <save|load|list|rollback> [flags]")
	}
	switch args[0] {
	case "save":
		return cmdModelSave(args[1:])
	case "load":
		return cmdModelLoad(args[1:])
	case "list":
		return cmdModelList(args[1:])
	case "rollback":
		return cmdModelRollback(args[1:])
	default:
		return fmt.Errorf("unknown model subcommand %q", args[0])
	}
}

// cmdModelSave publishes a gob model into the snapshot store after validating
// it against the network — the offline-fit → lifecycle hand-off.
func cmdModelSave(args []string) error {
	fs := flag.NewFlagSet("model save", flag.ContinueOnError)
	data := fs.String("data", "", "data directory with network.json (required)")
	modelPath := fs.String("model", "model.gob", "trained model path")
	storeDir := fs.String("store", "", "snapshot store directory (required)")
	note := fs.String("note", "", "operator annotation recorded in the snapshot")
	days := fs.Int("days", 30, "days recorded in history.csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" || *storeDir == "" {
		return fmt.Errorf("model save: -data and -store are required")
	}
	net, _, err := loadData(*data, *days)
	if err != nil {
		return err
	}
	model, err := readGobModel(*modelPath)
	if err != nil {
		return err
	}
	// The same structural gate the server applies: a corrupt or
	// wrong-topology model never enters the store.
	if err := modelstore.ValidateModel(net, model, 0); err != nil {
		return err
	}
	store, err := modelstore.Open(*storeDir)
	if err != nil {
		return err
	}
	info, err := store.Save(model, modelstore.Meta{Source: "cli", Note: *note})
	if err != nil {
		return err
	}
	fmt.Printf("published v%d (%s, %d roads, %d edges, %d bytes, topo %016x)\n",
		info.Version, info.File, info.Roads, info.Edges, info.SizeBytes, info.TopoHash)
	return nil
}

// cmdModelLoad decodes a stored version — exercising every checksum — and
// optionally re-exports it as gob for the offline tooling.
func cmdModelLoad(args []string) error {
	fs := flag.NewFlagSet("model load", flag.ContinueOnError)
	storeDir := fs.String("store", "", "snapshot store directory (required)")
	version := fs.Uint64("version", 0, "version to load (0 = current)")
	out := fs.String("out", "", "write the decoded model as gob to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("model load: -store is required")
	}
	store, err := modelstore.Open(*storeDir)
	if err != nil {
		return err
	}
	model, info, err := store.Load(*version)
	if err != nil {
		return err
	}
	fmt.Printf("v%d ok: %d roads, %d edges, source %q, created %s\n",
		info.Version, info.Roads, info.Edges, info.Meta.Source,
		time.Unix(info.CreatedAtUnix, 0).UTC().Format(time.RFC3339))
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := model.Write(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func cmdModelList(args []string) error {
	fs := flag.NewFlagSet("model list", flag.ContinueOnError)
	storeDir := fs.String("store", "", "snapshot store directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("model list: -store is required")
	}
	store, err := modelstore.Open(*storeDir)
	if err != nil {
		return err
	}
	versions := store.Versions()
	if len(versions) == 0 {
		fmt.Println("store is empty")
		return nil
	}
	cur, _ := store.Current()
	fmt.Printf("%-3s %-8s %-20s %-12s %-8s %s\n", "", "version", "created", "source", "size", "note")
	for _, v := range versions {
		mark := ""
		if v.Version == cur.Version {
			mark = "*"
		}
		fmt.Printf("%-3s v%-7d %-20s %-12s %-8d %s\n",
			mark, v.Version,
			time.Unix(v.CreatedAtUnix, 0).UTC().Format("2006-01-02T15:04:05Z"),
			v.Meta.Source, v.SizeBytes, v.Meta.Note)
	}
	return nil
}

func cmdModelRollback(args []string) error {
	fs := flag.NewFlagSet("model rollback", flag.ContinueOnError)
	storeDir := fs.String("store", "", "snapshot store directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("model rollback: -store is required")
	}
	store, err := modelstore.Open(*storeDir)
	if err != nil {
		return err
	}
	info, err := store.Rollback()
	if err != nil {
		return err
	}
	// Verify the rolled-back-to snapshot still decodes cleanly before
	// declaring success — an operator rolling back wants certainty.
	if _, _, err := store.Load(info.Version); err != nil {
		return fmt.Errorf("rolled back to v%d but it fails to load: %w", info.Version, err)
	}
	fmt.Printf("current is now v%d (%s, source %q)\n", info.Version, info.File, info.Meta.Source)
	return nil
}
