package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// The PR-5 API redesign unifies every /v1 error on one JSON envelope:
//
//	{"error": {"code": "bad_request", "message": "slot 999999 out of range", "request_id": "req-000042"}}
//
// code is a stable machine-readable token derived from the HTTP status,
// message is human-readable detail, and request_id echoes the X-Request-ID
// header (minted by the server when the client sent none) so a failing call
// can be correlated with the trace log. Success bodies are unchanged.

// errorBody is the error envelope payload.
type errorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id"`
}

// errorEnvelope is the full error response body.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

// errorCode maps an HTTP status to its stable envelope code.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestTimeout, http.StatusGatewayTimeout:
		return "timeout"
	case http.StatusConflict:
		return "conflict"
	case http.StatusUnauthorized:
		return "unauthorized"
	case http.StatusTooManyRequests:
		// The admission controller's shed/rate-limit/quota rejections; the
		// response additionally carries a Retry-After header.
		return "too_many_requests"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusInternalServerError:
		return "internal"
	default:
		// Fall back to the standard reason phrase, snake_cased, so even an
		// unexpected status keeps a machine-readable code.
		text := http.StatusText(status)
		if text == "" {
			return fmt.Sprintf("status_%d", status)
		}
		return strings.ReplaceAll(strings.ToLower(text), " ", "_")
	}
}

// requestIDKey carries the per-request ID through the context; withObs sets
// it for every request.
type requestIDKey struct{}

// requestID returns the ID withObs assigned to this request ("" outside the
// middleware chain, e.g. direct handler unit tests).
func requestID(r *http.Request) string {
	if r == nil {
		return ""
	}
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// withRequestID stashes the ID in the request context.
func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr emits the unified error envelope with the status-derived code and
// the request's correlation ID.
func writeErr(w http.ResponseWriter, r *http.Request, status int, format string, args ...interface{}) {
	writeJSON(w, status, errorEnvelope{Error: errorBody{
		Code:      errorCode(status),
		Message:   fmt.Sprintf(format, args...),
		RequestID: requestID(r),
	}})
}

// decodeRequest decodes r's JSON body into v, the route's request type, under
// the strict request contract: the body is exactly one JSON value and names
// no field v's type lacks. A refused body gets the envelope's 400, whose
// message names the unknown field (or the trailing value), and decodeRequest
// returns false. A route's required fields are pointers or slices in its
// request type, which absent and null both leave nil, and the route refuses a
// nil one itself.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, extra := dec.Token(); extra != io.EOF {
			err = fmt.Errorf("body holds more than one JSON value")
		}
	}
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "decode: %v", err)
		return false
	}
	return true
}
