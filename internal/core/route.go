// Route-level ETA through the Batcher (PR 10). A route query is the first
// composite consumer of the serving stack: it needs the departure slot's
// tiered field (shared with every concurrent point query through the same
// singleflight machinery) plus the forecast fan for the slots the trip
// crosses, stitched into one uncertainty-carrying router.DistField. The
// Batcher owns that composition so a thousand concurrent route queries for
// the same departure slot pay for one propagation and one forecast fan, not
// a thousand.
package core

import (
	"context"
	"fmt"

	"repro/internal/gsp"
	"repro/internal/qos"
	"repro/internal/router"
	"repro/internal/tslot"
)

// RouteETARequest is one origin→destination ETA query.
type RouteETARequest struct {
	// Slot is the departure slot; the base speed field is served there at
	// the request's tier.
	Slot tslot.Slot
	Src  int
	Dst  int
	// DepartMinute is the minute-of-day of departure; negative means the
	// start of Slot.
	DepartMinute float64
	// Horizon is how many slots past Slot the trip may cross (served from
	// the temporal filter's forecast fan, or the prior while the filter has
	// fused nothing). A trip that would enter Slot+Horizon+1 fails with
	// router.ErrHorizonExceeded. 0 confines the trip to the departure slot.
	Horizon int
	// Tier is the admitted QoS tier for the base field.
	Tier qos.Tier
}

// RouteETAResult is the planned route with its travel-time distribution and
// the serving metadata of the base field.
type RouteETAResult struct {
	ETA router.ETA
	// Tier is the rung the departure slot's field was actually served at.
	Tier qos.Tier
	// VarianceInflation is the base field's aggregate SD widening (1.0 at
	// full and prior tier).
	VarianceInflation float64
	// ForecastUsed reports whether any segment was priced from the temporal
	// forecast fan (false when the trip stays in the departure slot or the
	// fan fell back to the prior).
	ForecastUsed bool
}

// RouteETA plans src→dst departing in req.Slot and integrates the tiered
// posterior field along the path. The departure slot's field goes through
// EstimateTier — concurrent route and point queries for the slot coalesce —
// and slots beyond it are served from one Forecast fan (read-only snapshot,
// honestly widening variance), both conditioned on the departure slot's
// aggregates, so the ETA's per-segment provenance is
// "observed"/"fused"/"prior" in the departure slot and "forecast" past it.
func (b *Batcher) RouteETA(ctx context.Context, req RouteETARequest) (RouteETAResult, error) {
	if !req.Slot.Valid() {
		return RouteETAResult{}, fmt.Errorf("core: invalid slot %d", req.Slot)
	}
	if req.Horizon < 0 || req.Horizon > MaxHorizon {
		return RouteETAResult{}, fmt.Errorf("core: route horizon %d outside [0,%d]", req.Horizon, MaxHorizon)
	}
	base, err := b.EstimateTier(ctx, req.Tier, req.Slot, nil)
	if err != nil {
		return RouteETAResult{}, err
	}
	field, forecastUsed := b.routeField(req, &base)
	depart := req.DepartMinute
	if depart < 0 {
		depart = float64(req.Slot.StartMinute())
	}
	eta, err := router.PlanETA(b.sys.Network(), field, depart, req.Src, req.Dst)
	if err != nil {
		return RouteETAResult{}, err
	}
	return RouteETAResult{
		ETA:               eta,
		Tier:              base.Tier,
		VarianceInflation: base.VarianceInflation,
		ForecastUsed:      *forecastUsed,
	}, nil
}

// routeField stitches the tiered base field and the forecast fan into one
// DistField over [Slot, Slot+Horizon]. The fan is materialized lazily on the
// first segment that crosses the slot boundary — a trip that fits in the
// departure slot never touches the filter — and falls back to the per-slot
// prior while the filter has fused nothing. forecastUsed flips to true the
// first time a fan step actually prices a segment.
func (b *Batcher) routeField(req RouteETARequest, base *TierResult) (router.DistField, *bool) {
	fanReady := false
	var fan []temporalStepField
	forecastUsed := new(bool)
	field := func(t tslot.Slot, road int) (router.SpeedDist, bool) {
		steps := (int(t) - int(req.Slot) + tslot.PerDay) % tslot.PerDay
		if steps == 0 {
			return router.SpeedDist{
				Mean:       base.Speeds[road],
				SD:         base.SD[road],
				Provenance: tierProvenance(&base.Result, road, base.Tier),
			}, true
		}
		if steps > req.Horizon {
			return router.SpeedDist{}, false
		}
		if !fanReady {
			fan = b.forecastFan(req)
			fanReady = true
		}
		sf := fan[steps-1]
		if sf.forecast {
			*forecastUsed = true
		}
		return router.SpeedDist{Mean: sf.speeds[road], SD: sf.sd[road], Provenance: sf.provenance}, true
	}
	return field, forecastUsed
}

// temporalStepField is one future slot's field inside a stitched route
// field: either a forecast fan step or the prior fallback.
type temporalStepField struct {
	speeds, sd []float64
	provenance string
	forecast   bool
}

// forecastFan prices slots Slot+1..Slot+Horizon: the temporal filter's
// read-only fan once the filter has absorbed evidence, else the periodicity
// prior per slot.
func (b *Batcher) forecastFan(req RouteETARequest) []temporalStepField {
	out := make([]temporalStepField, req.Horizon)
	if b.temporal.Fused() > 0 {
		if fan, _, err := b.Forecast(req.Slot, req.Horizon); err == nil && len(fan) == req.Horizon {
			for i, step := range fan {
				out[i] = temporalStepField{speeds: step.Speeds, sd: step.SD, provenance: "forecast", forecast: true}
			}
			return out
		}
	}
	for i := range out {
		speeds, sd := b.sys.PriorField(req.Slot.Add(i + 1))
		out[i] = temporalStepField{speeds: speeds, sd: sd, provenance: gsp.ProvPrior.String()}
	}
	return out
}

// tierProvenance labels one road of a tiered field. Degraded tiers that
// synthesize the field without a propagation (prior fallback) carry no
// per-road provenance vector; everything they serve is the prior.
func tierProvenance(res *gsp.Result, road int, tier qos.Tier) string {
	if road < len(res.Provenance) {
		return res.Provenance[road].String()
	}
	if tier == qos.TierPrior {
		return gsp.ProvPrior.String()
	}
	return gsp.ProvFused.String()
}

// RouteWeights converts a planned ETA into the RouteVar selector's per-road
// weight vector for this system's network size.
func (b *Batcher) RouteWeights(eta router.ETA) []float64 {
	return eta.SensitivityWeights(b.sys.Network().N())
}
