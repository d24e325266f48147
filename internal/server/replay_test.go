package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/tslot"
)

// replayClass is the replay's traffic mix by client sequence number: one
// client in ten is alerting, three interactive, six batch.
func replayClass(seq int) string {
	switch seq % 10 {
	case 0:
		return "ops-key"
	case 1, 2, 3:
		return "maps-key"
	default:
		return "etl-key"
	}
}

// replayCounts is one class's outcome over the replay.
type replayCounts struct {
	sent, shed, admitted int
	// surgeSent/surgeShed/surgeAdmitted/surgeDegraded count the surge steps.
	surgeSent, surgeShed, surgeAdmitted, surgeDegraded int
}

func (c replayCounts) surgeShedRate() float64 {
	return float64(c.surgeShed) / math.Max(float64(c.surgeSent), 1)
}

func (c replayCounts) surgeDegradedRate() float64 {
	return float64(c.surgeDegraded) / math.Max(float64(c.surgeAdmitted), 1)
}

// TestQoSDiurnalReplay replays a diurnal demand curve against the QoS ladder
// through the real handler and asserts the ladder's invariants: alerting is
// never shed, batch is shed at the surge but not wholesale, batch degrades
// at least as often as interactive, every admitted answer names its tier,
// and a batch request rides the full pipeline again once the surge drains.
//
// Load is a closed loop modelled without a wall clock. Each of the 8 steps
// runs a few ticks; in each tick every client of the step sends one estimate
// carrying a fresh observation. An admitted request holds one unit on the
// server's own in-flight gauge, the signal EnableQoS wires to pressure, until
// the tick ends; a shed request holds nothing. The step's client count
// follows congestion in the speedgen history, so the trough stays under
// capacity and the peak offers 3× MaxInFlight.
func TestQoSDiurnalReplay(t *testing.T) {
	const (
		steps         = 8
		ticks         = 3
		maxInFlight   = 16
		surgeMultiple = 3
		shedCeiling   = 0.90
	)
	sys, hist := trainFixture(t)
	srv := New(sys)
	srv.SetClock(obs.NewFakeClock(time.Unix(0, 0), 0))
	srv.Timeout = 0
	if err := srv.EnableQoS(qos.Config{MaxInFlight: maxInFlight, Tenants: qosTenants}); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	n := sys.Network().N()

	// estimate sends one estimate as the given tenant and returns the status
	// and the served tier.
	estimate := func(key, body string) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(body))
		req.Header.Set("X-API-Key", key)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var out estimateResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("decode: %v", err)
			}
		}
		return rec.Code, out.Quality
	}

	// Demand: congestion (low network-mean speed) on the last history day at
	// each step's slot, scaled to [0.15, 1] of the surge peak.
	day := hist.Days - 1
	mean := make([]float64, steps)
	lo, hi := math.Inf(1), math.Inf(-1)
	for s := range mean {
		slot := tslot.Slot(s * tslot.PerDay / steps)
		for r := 0; r < n; r++ {
			mean[s] += hist.At(day, slot, r) / float64(n)
		}
		lo, hi = math.Min(lo, mean[s]), math.Max(hi, mean[s])
	}
	peak := float64(maxInFlight * surgeMultiple)

	classes := map[string]*replayCounts{"ops-key": {}, "maps-key": {}, "etl-key": {}}
	surgeSteps, seq := 0, 0
	for s := 0; s < steps; s++ {
		offered := (0.15 + 0.85*(hi-mean[s])/(hi-lo)) * peak
		surge := offered > maxInFlight
		if surge {
			surgeSteps++
		}
		fleet := make([]string, max(int(math.Round(offered)), 1))
		for j := range fleet {
			fleet[j] = replayClass(seq)
			seq++
		}
		base := s * tslot.PerDay / steps
		for k := 0; k < ticks; k++ {
			held := 0
			for j, key := range fleet {
				r := j + k
				body := fmt.Sprintf(`{"slot":%d,"roads":[%d,%d],"observed":{"%d":%.1f}}`,
					(base+j*31+k)%tslot.PerDay, r%n, (r+1)%n, (r+2)%n, 20+float64(r%40))
				status, quality := estimate(key, body)
				c := classes[key]
				c.sent++
				if surge {
					c.surgeSent++
				}
				switch status {
				case http.StatusTooManyRequests:
					c.shed++
					if surge {
						c.surgeShed++
					}
				case http.StatusOK:
					if quality == "" {
						t.Fatalf("step %d: admitted %s answer carries no tier label", s, key)
					}
					c.admitted++
					srv.httpm.inFlight.AddDelta(1)
					held++
					if surge {
						c.surgeAdmitted++
						if quality != qos.TierFull.String() {
							c.surgeDegraded++
						}
					}
				default:
					t.Fatalf("step %d: %s estimate answered %d", s, key, status)
				}
			}
			srv.httpm.inFlight.AddDelta(float64(-held))
		}
	}

	ops, maps, etl := classes["ops-key"], classes["maps-key"], classes["etl-key"]
	t.Logf("surge steps %d; alerting %+v; interactive %+v; batch %+v", surgeSteps, *ops, *maps, *etl)
	if surgeSteps == 0 {
		t.Fatal("no surge steps: the replay never exceeded capacity")
	}
	for key, c := range classes {
		if c.sent == 0 {
			t.Errorf("%s sent no traffic", key)
		}
	}
	if ops.shed != 0 {
		t.Errorf("alerting shed %d of %d requests; the ladder must never shed alerting", ops.shed, ops.sent)
	}
	if etl.surgeShed == 0 {
		t.Error("batch was never shed at the surge")
	}
	if b, i := etl.surgeDegradedRate(), maps.surgeDegradedRate(); b < i {
		t.Errorf("batch degraded fraction %.3f at the surge below interactive's %.3f", b, i)
	}
	if r := etl.surgeShedRate(); r > shedCeiling {
		t.Errorf("batch surge shed rate %.3f above ceiling %.2f", r, shedCeiling)
	}
	if status, quality := estimate("etl-key", `{"slot":10,"roads":[1]}`); status != http.StatusOK || quality != "full" {
		t.Errorf("post-surge batch request answered %d at tier %q, want 200 at full", status, quality)
	}
}
