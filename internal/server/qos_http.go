// Admission control (PR 6). When a qos.Controller is enabled (EnableQoS),
// every work route — select, estimate, query, subscribe, alerts — passes
// through withAdmission: the request is authenticated to a tenant (API key
// via Authorization: Bearer or X-API-Key; keyless traffic is the anonymous
// tenant unless disabled), charged against the tenant's token bucket, and
// placed on the QoS ladder at the current pressure. Admitted requests carry
// their tenant/class/tier decision in the context; the estimate/query/alerts
// handlers serve the decided tier through core.Batcher.EstimateTier and
// label the response with `quality` and the SD inflation. Shed requests get
// a 429 in the unified error envelope with a Retry-After header.
//
// Cheap control-plane routes (network, workers, report, healthz, model,
// metrics, pprof) bypass admission: shedding a health check during overload
// would blind the operator at exactly the wrong moment, and reports are the
// signal that ends the overload.
//
// The select and subscribe routes are admission-gated but always serve full
// fidelity once admitted (OCS has no cheaper tier; a subscription is already
// incremental). Select additionally charges the request's probe budget
// against the tenant's quota — rate limits bound request *count*, the quota
// bounds the crowdsourcing *money* a tenant can spend.
package server

import (
	"context"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/qos"
)

// qosRoutes lists the admission-gated routes; everything else bypasses the
// controller.
var qosRoutes = map[string]bool{
	"select": true, "estimate": true, "query": true, "subscribe": true, "alerts": true,
	"forecast": true, "route": true,
}

// admissionInfo travels with an admitted request through the context.
type admissionInfo struct {
	Tenant   *qos.Tenant
	Decision qos.Decision
	// Deferred marks the batch query route: the token charge waits until the
	// handler knows the entry count, so an n-entry batch is charged n tokens
	// all-or-nothing (atomic shed, never half-admitted).
	Deferred bool
}

type admissionKey struct{}

// admissionFrom returns the request's admission decision, nil when QoS is
// disabled or the route bypasses it.
func admissionFrom(ctx context.Context) *admissionInfo {
	ai, _ := ctx.Value(admissionKey{}).(*admissionInfo)
	return ai
}

// EnableQoS builds and attaches the admission controller, wiring its
// pressure signals to the server's own observability instruments (the HTTP
// in-flight gauge and the p95 of the request-latency histogram) and its
// per-tenant counters onto /v1/metrics. Call after SetClock and before
// serving traffic.
func (s *Server) EnableQoS(cfg qos.Config) error {
	ctl, err := qos.New(cfg, s.clock)
	if err != nil {
		return err
	}
	ctl.SetSignals(
		func() float64 { return s.httpm.inFlight.Value() },
		func() float64 { return s.httpm.latency.Quantile(0.95) },
	)
	ctl.RegisterMetrics(s.reg)
	s.qosCtl = ctl
	return nil
}

// QoS returns the attached admission controller (nil when disabled).
func (s *Server) QoS() *qos.Controller { return s.qosCtl }

// apiKey extracts the tenant credential: Authorization: Bearer <key> wins,
// X-API-Key is the fallback, absent means anonymous.
func apiKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if key, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
	}
	return strings.TrimSpace(r.Header.Get("X-API-Key"))
}

// withAdmission is the admission middleware. It sits inside withObs (the
// decision wants the request ID for its envelope and the in-flight gauge
// already incremented) and outside withTimeout (a shed request must not
// consume a work deadline).
func (s *Server) withAdmission(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctl := s.qosCtl
		if ctl == nil || !qosRoutes[routeName(r.URL.Path)] {
			next.ServeHTTP(w, r)
			return
		}
		tenant, ok := ctl.Resolve(apiKey(r))
		if !ok {
			writeErr(w, r, http.StatusUnauthorized, "unknown API key")
			return
		}
		class := tenant.DefaultClass()
		if raw := r.Header.Get("X-Priority"); raw != "" {
			c, err := qos.ParseClass(raw)
			if err != nil {
				writeErr(w, r, http.StatusBadRequest, "%v", err)
				return
			}
			class = c // Admit clamps to the tenant's MaxClass
		}
		// Forecasts are planning aids, never incident response: cap them at
		// interactive so they can't ride the never-pressure-shed alerting lane.
		if routeName(r.URL.Path) == "forecast" && class > qos.ClassInteractive {
			class = qos.ClassInteractive
		}
		ai := &admissionInfo{Tenant: tenant}
		if rn := routeName(r.URL.Path); rn == "query" || rn == "route" {
			// Defer the token charge to the handler: the fair price is one
			// token per batch entry (known after the body parses) or per
			// route segment (known after the planner runs).
			ai.Deferred = true
			ai.Decision = qos.Decision{Tenant: tenant, Class: class}
		} else {
			d := ctl.Admit(tenant, class, 1)
			if !d.Admit {
				writeShed(w, r, d)
				return
			}
			ai.Decision = d
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), admissionKey{}, ai)))
	})
}

// admitBatch performs the deferred batch charge: entries tokens, all or
// nothing. Reports whether the request may proceed; on false the 429 has
// been written.
func (s *Server) admitBatch(w http.ResponseWriter, r *http.Request, ai *admissionInfo, entries int) bool {
	if ai == nil || !ai.Deferred {
		return true
	}
	d := s.qosCtl.Admit(ai.Tenant, ai.Decision.Class, float64(entries))
	if !d.Admit {
		writeShed(w, r, d)
		return false
	}
	ai.Decision = d
	ai.Deferred = false
	return true
}

// writeShed answers a rejected request: Retry-After header (whole seconds,
// rounded up, at least 1) plus the unified 429 envelope.
func writeShed(w http.ResponseWriter, r *http.Request, d qos.Decision) {
	retry := int(math.Ceil(d.RetryAfter.Seconds()))
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	switch d.Reason {
	case "overload":
		writeErr(w, r, http.StatusTooManyRequests,
			"overloaded: %s-class request shed at pressure %.2f, retry after %ds",
			d.Class, d.Pressure, retry)
	default:
		writeErr(w, r, http.StatusTooManyRequests,
			"rate limit exceeded for tenant %q, retry after %ds", d.Tenant.Name(), retry)
	}
}

// writeQuotaExhausted answers a select whose probe budget would breach the
// tenant's quota: same 429 + Retry-After surface as a shed.
func writeQuotaExhausted(w http.ResponseWriter, r *http.Request, tenant *qos.Tenant, budget int, retryAfter float64) {
	retry := int(math.Ceil(retryAfter))
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeErr(w, r, http.StatusTooManyRequests,
		"probe budget quota exhausted for tenant %q (requested %d units), retry after %ds",
		tenant.Name(), budget, retry)
}
