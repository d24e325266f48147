package shard

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/faults"
	"repro/internal/gsp"
	"repro/internal/network"
	"repro/internal/ocs"
	"repro/internal/rtf"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

// The unsharded system, its Batcher and the sharded engine answer the same
// three ctx-first calls with core's types.
var (
	_ ctxEngine = (*core.System)(nil)
	_ ctxEngine = (*core.Batcher)(nil)
	_ ctxEngine = (*Engine)(nil)
)

type ctxEngine interface {
	Select(context.Context, core.SelectRequest) (ocs.Solution, error)
	Estimate(context.Context, tslot.Slot, map[int]float64) (gsp.Result, error)
	Query(context.Context, core.QueryRequest) (*core.QueryResult, error)
}

// metroFixture builds a small metro network with a synthesized fitted model.
func metroFixture(tb testing.TB, roads, districts int) (*network.Network, *rtf.Model, []speedgen.Profile) {
	tb.Helper()
	net := network.Metro(network.MetroOptions{Roads: roads, Districts: districts, Seed: 1})
	model, profiles, err := speedgen.MetroModel(net, speedgen.MetroConfig{Seed: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return net, model, profiles
}

func TestShardLayoutDeterminism(t *testing.T) {
	net, model, _ := metroFixture(t, 400, 4)
	cfg := Config{Shards: 3, Seed: 9, Core: core.DefaultConfig()}
	a, err := New(net, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(net, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < a.Shards(); p++ {
		if !reflect.DeepEqual(a.Shard(p).Owned(), b.Shard(p).Owned()) {
			t.Fatalf("shard %d owned set differs between identically-seeded engines", p)
		}
		if !reflect.DeepEqual(a.Shard(p).Halo(), b.Shard(p).Halo()) {
			t.Fatalf("shard %d halo differs between identically-seeded engines", p)
		}
	}
	for r := 0; r < net.N(); r++ {
		if a.Owner(r) != b.Owner(r) {
			t.Fatalf("road %d owner differs", r)
		}
	}
}

// TestFullHaloExactEquivalence: with the halo covering the entire network,
// every shard computes over the complete graph under identity numbering, so
// the sharded field and the sharded correlations must equal the unsharded
// engine's exactly — this pins the routing/merge machinery itself.
func TestFullHaloExactEquivalence(t *testing.T) {
	net, model, profiles := metroFixture(t, 200, 4)
	slot := tslot.Slot(100)
	eng, err := New(net, model, Config{Shards: 2, Seed: 3, HaloHops: net.N(), Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := core.NewFromModel(net, model, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	observed := map[int]float64{}
	for r := 0; r < net.N(); r += 9 {
		observed[r] = profiles[r].Speed(slot) * 0.9
	}
	want, err := flat.Estimate(context.Background(), slot, observed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Estimate(context.Background(), slot, observed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Speeds) != len(want.Speeds) {
		t.Fatalf("field length %d, want %d", len(got.Speeds), len(want.Speeds))
	}
	for r := range want.Speeds {
		if math.Abs(got.Speeds[r]-want.Speeds[r]) > 1e-9 {
			t.Fatalf("road %d: sharded %v vs flat %v", r, got.Speeds[r], want.Speeds[r])
		}
	}
	// The stitched SD and provenance come from the same owner shards.
	if len(got.SD) != len(want.SD) || len(got.Provenance) != len(want.Provenance) {
		t.Fatalf("SD/provenance length %d/%d, want %d/%d",
			len(got.SD), len(got.Provenance), len(want.SD), len(want.Provenance))
	}
	for r := range want.SD {
		if math.Abs(got.SD[r]-want.SD[r]) > 1e-9 {
			t.Fatalf("road %d: sharded SD %v vs flat %v", r, got.SD[r], want.SD[r])
		}
		if got.Provenance[r] != want.Provenance[r] {
			t.Fatalf("road %d: sharded provenance %s vs flat %s", r, got.Provenance[r], want.Provenance[r])
		}
	}

	// Γ equivalence: with the full halo the shard's local numbering is the
	// identity, so whole correlation rows must match bit-for-bit.
	gOracle := flat.Oracle(slot)
	for p := 0; p < eng.Shards(); p++ {
		sOracle := eng.Shard(p).System().Oracle(slot)
		for _, src := range []int{0, 7, net.N() / 2} {
			sr, gr := sOracle.CorrRow(src), gOracle.CorrRow(src)
			for j := range gr {
				if sr[j] != gr[j] {
					t.Fatalf("shard %d Γ(%d,%d) = %v, flat %v", p, src, j, sr[j], gr[j])
				}
			}
		}
	}
}

// TestHaloStitchedEquivalence: with the default finite halo the sharded field
// is an ε-approximation — boundary correlations are stitched by duplicating
// observations into the halo, so cut-adjacent correlations stay exact and
// the field deviates only where propagation chains longer than the halo
// cross the cut.
func TestHaloStitchedEquivalence(t *testing.T) {
	net, model, profiles := metroFixture(t, 400, 4)
	slot := tslot.Slot(96)
	eng, err := New(net, model, Config{Shards: 2, Seed: 3, Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := core.NewFromModel(net, model, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Γ across the cut: for adjacent roads on opposite sides, Eq. (7) pins
	// corr to the edge ρ in both engines — the halo must preserve it.
	gOracle := flat.Oracle(slot)
	cut := 0
	net.Graph().Edges(func(u, v int) bool {
		pu, pv := eng.Owner(u), eng.Owner(v)
		if pu == pv {
			return true
		}
		cut++
		sh := eng.Shard(pu)
		lu, lv := localID(t, sh, u), localID(t, sh, v)
		want := gOracle.Corr(u, v)
		got := sh.System().Oracle(slot).Corr(lu, lv)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("cut edge (%d,%d): shard Γ %v, flat Γ %v", u, v, got, want)
		}
		return cut < 50 // checking a sample of the cut is plenty
	})
	if cut == 0 {
		t.Fatal("partition produced no cut edges — test is vacuous")
	}

	observed := map[int]float64{}
	for r := 0; r < net.N(); r += 7 {
		observed[r] = profiles[r].Speed(slot) * 0.88
	}
	want, err := flat.Estimate(context.Background(), slot, observed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Estimate(context.Background(), slot, observed)
	if err != nil {
		t.Fatal(err)
	}
	var sumRel, maxRel float64
	for r := range want.Speeds {
		rel := math.Abs(got.Speeds[r]-want.Speeds[r]) / want.Speeds[r]
		sumRel += rel
		if rel > maxRel {
			maxRel = rel
		}
	}
	meanRel := sumRel / float64(len(want.Speeds))
	t.Logf("halo-stitched deviation: mean %.5f, max %.5f", meanRel, maxRel)
	if meanRel > 0.01 {
		t.Errorf("mean relative deviation %v exceeds 1%%", meanRel)
	}
	if maxRel > 0.10 {
		t.Errorf("max relative deviation %v exceeds 10%%", maxRel)
	}
	for r, v := range observed {
		if got.Speeds[r] != want.Speeds[r] {
			t.Fatalf("observed road %d deviates: %v vs %v", r, got.Speeds[r], v)
		}
	}
}

func localID(tb testing.TB, sh *Shard, global int) int {
	tb.Helper()
	for li, gid := range sh.orig {
		if gid == global {
			return li
		}
	}
	tb.Fatalf("road %d not in shard %d", global, sh.index)
	return -1
}

func TestShardedSelect(t *testing.T) {
	net, model, _ := metroFixture(t, 400, 4)
	eng, err := New(net, model, Config{Shards: 4, Seed: 5, Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	query := make([]int, 0, 40)
	for r := 0; r < net.N(); r += 10 {
		query = append(query, r)
	}
	workers := make([]int, net.N())
	for r := range workers {
		workers[r] = r
	}
	sol, err := eng.Select(context.Background(), core.SelectRequest{
		Slot: 10, Roads: query, WorkerRoads: workers, Budget: 48, Theta: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost > 48 {
		t.Errorf("merged cost %d exceeds budget", sol.Cost)
	}
	if len(sol.Roads) == 0 || sol.Value <= 0 {
		t.Errorf("empty selection: %+v", sol)
	}
	seen := map[int]bool{}
	for _, r := range sol.Roads {
		if seen[r] {
			t.Errorf("road %d selected twice", r)
		}
		seen[r] = true
		if r < 0 || r >= net.N() {
			t.Errorf("road %d out of range", r)
		}
	}
}

// TestOutOfRangeRoadsRejected: an observed road or a worker road outside the
// network is an error on the unsharded System, its Batcher and the sharded
// Engine alike, and the Engine words it like the System (behind a "shard: "
// prefix) instead of dropping the road.
func TestOutOfRangeRoadsRejected(t *testing.T) {
	net, model, _ := metroFixture(t, 400, 4)
	sys, err := core.NewFromModel(net, model, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBatcher(sys, core.BatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(net, model, Config{Shards: 2, Seed: 5, Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		e    ctxEngine
	}{{"System", sys}, {"Batcher", b}, {"Engine", eng}}
	// check fails unless every engine's error ends with the System's.
	check := func(what string, call func(ctxEngine) error) {
		t.Helper()
		want := call(sys)
		if want == nil {
			t.Fatalf("%s: System accepted it", what)
		}
		for _, en := range engines {
			if err := call(en.e); err == nil {
				t.Errorf("%s: %s accepted it", what, en.name)
			} else if !strings.HasSuffix(err.Error(), want.Error()) {
				t.Errorf("%s: %s answered %q, want %q", what, en.name, err, want)
			}
		}
	}
	ctx := context.Background()
	for _, observed := range []map[int]float64{{400: 30}, {-1: 30}, {5: 30, 100000: 20}} {
		check(fmt.Sprintf("estimate with observations %v", observed), func(e ctxEngine) error {
			_, err := e.Estimate(ctx, 100, observed)
			return err
		})
	}
	check("select with worker roads [4 5 6 400 -3]", func(e ctxEngine) error {
		_, err := e.Select(ctx, core.SelectRequest{
			Slot: 100, Roads: []int{1, 2}, WorkerRoads: []int{4, 5, 6, 400, -3}, Budget: 5, Theta: 0.9,
		})
		return err
	})
}

func TestSplitBudget(t *testing.T) {
	q := [][]int{make([]int, 3), make([]int, 1), nil}
	got := splitBudget(8, q)
	if got[0]+got[1]+got[2] != 8 {
		t.Fatalf("split %v does not sum to 8", got)
	}
	if got[2] != 0 {
		t.Errorf("empty shard got budget %d", got[2])
	}
	if got[0] <= got[1] {
		t.Errorf("larger shard got %d ≤ smaller's %d", got[0], got[1])
	}
	if s := splitBudget(0, q); s[0]+s[1]+s[2] != 0 {
		t.Errorf("zero budget split %v", s)
	}
}

// TestConcurrentCrossShardQueries is the -race workout: queries whose road
// sets straddle every shard, fired concurrently across slots, must neither
// race nor deadlock in the per-shard Batchers. One member per slot runs the
// fault-tolerant policy — a fault-injected campaign over three rounds — and
// must stay within its budget and never observe a road it abandoned.
func TestConcurrentCrossShardQueries(t *testing.T) {
	net, model, profiles := metroFixture(t, 400, 4)
	eng, err := New(net, model, Config{Shards: 4, Seed: 7, Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	pool := crowd.PlaceEverywhere(net)
	const goroutines = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines+3)
	var recycled atomic.Int64
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			slot := tslot.Slot(90 + gi%3)
			truth := func(r int) float64 { return profiles[r].Speed(slot) * 0.93 }
			query := make([]int, 0, 20)
			for r := gi; r < net.N(); r += 20 {
				query = append(query, r)
			}
			res, err := eng.Query(context.Background(), core.QueryRequest{
				Slot: slot, Roads: query, Budget: 40, Theta: 0.95,
				Workers: pool, Truth: truth, Seed: int64(gi + 1),
				Probe: crowd.ProbeConfig{NoiseSD: 0.02},
			})
			if err != nil {
				errCh <- err
				return
			}
			if len(res.Speeds) != net.N() {
				errCh <- err
			}
		}(gi)
	}
	for slot := tslot.Slot(90); slot < 93; slot++ {
		wg.Add(1)
		go func(slot tslot.Slot) {
			defer wg.Done()
			inj, err := faults.New(faults.Config{Seed: int64(slot), DropoutProb: 0.3, LatencyProb: 0.1})
			if err != nil {
				errCh <- err
				return
			}
			camp := inj.WrapCampaign(crowd.DefaultCampaign(int64(slot)))
			truth := func(r int) float64 { return profiles[r].Speed(slot) * 0.93 }
			query := make([]int, 0, 20)
			for r := int(slot) % 20; r < net.N(); r += 20 {
				query = append(query, r)
			}
			const budget = 40
			res, err := eng.Query(context.Background(), core.QueryRequest{
				Slot: slot, Roads: query, Budget: budget, Theta: 0.95,
				Workers: inj.FilterPool(pool), Truth: inj.WrapTruth(truth), Seed: int64(slot),
				Campaign: &camp, Rounds: 3,
			})
			if err != nil {
				errCh <- err
				return
			}
			if res.Ledger.Spent > budget {
				errCh <- fmt.Errorf("slot %d: spent %d of budget %d", slot, res.Ledger.Spent, budget)
			}
			for _, r := range res.AbandonedRoads {
				if _, ok := res.Probed[r]; ok {
					errCh <- fmt.Errorf("slot %d: abandoned road %d was observed", slot, r)
				}
			}
			recycled.Add(int64(res.BudgetRecycled))
		}(slot)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if recycled.Load() == 0 {
		t.Error("no fault-tolerant member recycled budget: the sharded retry rounds went unexercised")
	}
	reps := eng.Reports()
	if len(reps) != 4 {
		t.Fatalf("got %d shard reports", len(reps))
	}
	totalOwned := 0
	for _, r := range reps {
		totalOwned += r.Roads
		if r.OracleCache.Misses == 0 {
			t.Errorf("shard %d never computed a correlation row", r.Shard)
		}
	}
	if totalOwned != net.N() {
		t.Errorf("shards own %d of %d roads", totalOwned, net.N())
	}
}
