// Admission control (PR 6). When a qos.Controller is enabled (EnableQoS),
// each apiTable row's admission policy decides what a request to it costs:
// the request is authenticated to a tenant (API key via Authorization:
// Bearer or X-API-Key; keyless traffic is the anonymous tenant unless
// disabled), charged against the tenant's token bucket, and placed on the
// QoS ladder at the current pressure. The row's wrapper (serve, api.go)
// admits only after the method check passed, so a wrong-method request is
// refused without a charge, and the decision travels to the handler in the
// context; the estimate/query/alerts handlers serve the decided tier
// through core.Batcher.EstimateTier and label the response with `quality`
// and the SD inflation. Shed requests get a 429 in the unified error
// envelope with a Retry-After header.
//
// Cheap control-plane routes (index, network, workers, report, healthz,
// model, metrics, pprof) bypass admission: shedding a health check during
// overload would blind the operator at exactly the wrong moment, and
// reports are the signal that ends the overload.
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

// admission is a route row's admission policy.
type admission int

const (
	// bypass: never charged or shed (the control plane).
	bypass admission = iota
	// oneToken: one token at the door.
	oneToken
	// deferred: the handler charges admitBatch once it knows the price, one
	// token per batch entry (query) or per route segment (route), all or
	// nothing.
	deferred
	// planning: one token, with the class capped at interactive. A forecast
	// is a planning aid, never incident response, so it must not ride the
	// never-pressure-shed alerting lane.
	planning
)

type admissionKey struct{}

// admissionFrom returns the request's admission decision, nil when QoS is
// disabled or the route bypasses it.
func admissionFrom(ctx context.Context) *qos.Decision {
	d, _ := ctx.Value(admissionKey{}).(*qos.Decision)
	return d
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

// admit runs a row's admission policy. It returns the request to serve,
// carrying its decision (a deferred row's holds the tenant and class only),
// and false when the request was refused, with the envelope written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, policy admission) (*http.Request, bool) {
	ctl := s.qosCtl
	if ctl == nil || policy == bypass {
		return r, true
	}
	tenant, ok := ctl.Resolve(apiKey(r))
	if !ok {
		writeErr(w, r, http.StatusUnauthorized, "unknown API key")
		return nil, false
	}
	class := tenant.DefaultClass()
	if raw := r.Header.Get("X-Priority"); raw != "" {
		c, err := qos.ParseClass(raw)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, "%v", err)
			return nil, false
		}
		class = c // Admit clamps to the tenant's MaxClass
	}
	if policy == planning && class > qos.ClassInteractive {
		class = qos.ClassInteractive
	}
	d := qos.Decision{Tenant: tenant, Class: class}
	if policy != deferred {
		if d = ctl.Admit(tenant, class, 1); !d.Admit {
			writeShed(w, r, d)
			return nil, false
		}
	}
	return r.WithContext(context.WithValue(r.Context(), admissionKey{}, &d)), true
}

// admitBatch performs a deferred row's charge: entries tokens, all or
// nothing. Reports whether the request may proceed; on false the 429 has
// been written. Without QoS (nil d) every request proceeds.
func (s *Server) admitBatch(w http.ResponseWriter, r *http.Request, d *qos.Decision, entries int) bool {
	if d == nil {
		return true
	}
	if *d = s.qosCtl.Admit(d.Tenant, d.Class, float64(entries)); !d.Admit {
		writeShed(w, r, *d)
		return false
	}
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
