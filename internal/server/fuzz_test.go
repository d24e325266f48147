package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/modelstore"
)

// jsonRoutes are the routes whose POST handler decodes a JSON body.
var jsonRoutes = []string{
	"/v1/workers", "/v1/report", "/v1/select", "/v1/estimate", "/v1/query",
	"/v1/route", "/v1/forecast", "/v1/alerts", "/v1/model",
}

// FuzzHandlers POSTs each input body to every route whose handler decodes
// JSON, through the full middleware chain. No body may provoke a 5xx, every
// non-2xx answer must be the unified error envelope with a code, a message
// and a request id, and a body that names a key its route's request type
// lacks, or misses a required field, never answers 2xx (breaksContract).
// The seed corpus is the example body of each
// route from README.md (and, for workers, report and select, from the
// package documentation).
func FuzzHandlers(f *testing.F) {
	for _, body := range []string{
		`{"workers":[{"road":3}]}`,
		`{"road":3,"slot":102,"speed":47.5}`,
		`{"slot":102,"roads":[1,2],"budget":30,"theta":0.92,"selector":"Hybrid"}`,
		`{"slot":102,"observed":{"4":17.5},"level":0.8}`,
		`{"slot":102,"roads":[1,2],"level":0.75}`,
		`{"queries":[{"slot":102,"roads":[1,2,3]},{"slot":102,"roads":[4,5]},{"slot":108,"roads":[1,2]}]}`,
		`{"src":3,"dst":41,"slot":102,"depart_minute":514,"level":0.9}`,
		`{"src":3,"dst":41,"slot":102}`,
		`{"src":3,"dst":41,"slot":102,"budget":10}`,
		`{"slot":102,"roads":[1,2],"horizon":3}`,
		`{"slot":102,"predicates":[{"road":4,"speed_below":20,"confidence":0.9},{"road":7,"speed_below":35}]}`,
		`{"action":"refit"}`,
		`{"action":"rollback"}`,
		`{"action":"reload"}`,
		`{}`,
		`{"reports":[{"road":1,"slot":102,"speed":40}]}`,
		`{"worker":[{"road":3}]}`,
		`{"slot":102,"roads":[1,2]} {"slot":103}`,
	} {
		f.Add(body)
	}
	// The model route decodes its body only with a lifecycle attached.
	sys, _ := trainFixture(f)
	srv := New(sys)
	store, err := modelstore.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	mgr, err := modelstore.NewManager(sys, store)
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := mgr.Publish(sys.Model().Clone(), modelstore.Meta{Source: "offline-fit"}, nil); err != nil {
		f.Fatal(err)
	}
	srv.AttachLifecycle(mgr, nil)
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body string) {
		for _, route := range jsonRoutes {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, strings.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("POST %s %q: status %d: %s", route, body, rec.Code, rec.Body)
			}
			if rec.Code < 300 {
				if why := breaksContract(route, body); why != "" {
					t.Fatalf("POST %s %q: status %d for a body with %s", route, body, rec.Code, why)
				}
				continue
			}
			var env errorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("POST %s %q: status %d body is not the error envelope: %v", route, body, rec.Code, err)
			}
			if e := env.Error; e.Code == "" || e.Message == "" || e.RequestID == "" {
				t.Fatalf("POST %s %q: status %d envelope missing a field: %+v", route, body, rec.Code, e)
			}
		}
	})
}
