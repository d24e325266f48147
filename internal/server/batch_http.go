package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/qos"
	"repro/internal/tslot"
)

// POST /v1/query — the batch estimation endpoint. A dashboard refreshing a
// hundred tiles sends one request with a hundred entries instead of a
// hundred; entries that share a slot (and observation overrides) coalesce
// into one warm-started propagation through the server's Batcher, so the
// total GSP work is per-distinct-slot, not per-entry.
//
//	{"queries": [{"slot":102,"roads":[1,2]}, {"slot":102,"roads":[3]}, ...]}
//
// The response preserves entry order:
//
//	{"results": [ <estimate response>, ... ], "queries": 2, "slots": 1}

type batchQueryRequest struct {
	Queries []estimateRequest `json:"queries"`
}

type batchQueryResponse struct {
	Results []*estimateResponse `json:"results"`
	Queries int                 `json:"queries"`
	// Slots is how many distinct slots the batch touched — the number of
	// propagations an un-coalesced client would at minimum have paid for
	// redundantly is Queries − Slots.
	Slots int `json:"slots"`
}

// maxBatchEntries bounds one batch request; beyond it the envelope says 400
// rather than letting a single POST monopolize the pipeline.
const maxBatchEntries = 256

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req batchQueryRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, r, http.StatusBadRequest, "empty batch: queries must contain at least one entry")
		return
	}
	if len(req.Queries) > maxBatchEntries {
		writeErr(w, r, http.StatusBadRequest, "batch of %d entries exceeds the limit of %d", len(req.Queries), maxBatchEntries)
		return
	}
	// Validate every entry before estimating any: a batch is atomic on
	// validation errors, so a client cannot be left guessing which half ran.
	slots := map[int]struct{}{}
	for i, q := range req.Queries {
		if !tslot.Slot(q.Slot).Valid() {
			writeErr(w, r, http.StatusBadRequest, "queries[%d]: slot %d out of range", i, q.Slot)
			return
		}
		slots[q.Slot] = struct{}{}
	}
	// Deferred admission charge: one token per entry, all or nothing — the
	// batch sheds atomically (429 + Retry-After), never half-admitted.
	if !s.admitBatch(w, r, admissionFrom(r.Context()), len(req.Queries)) {
		return
	}

	// Fan the entries out concurrently; the Batcher's singleflight collapses
	// same-slot entries into one propagation.
	out := batchQueryResponse{
		Results: make([]*estimateResponse, len(req.Queries)),
		Queries: len(req.Queries),
		Slots:   len(slots),
	}
	errs := make([]error, len(req.Queries))
	statuses := make([]int, len(req.Queries))
	var wg sync.WaitGroup
	for i, q := range req.Queries {
		wg.Add(1)
		go func(i int, q estimateRequest) {
			defer wg.Done()
			out.Results[i], statuses[i], errs[i] = s.estimateOne(r.Context(), q)
		}(i, q)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			writeErr(w, r, statuses[i], "queries[%d]: %v", i, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// GET /v1/subscribe — the standing-query endpoint. Both consumption modes
// run one digest loop (nextUpdate) that answers as soon as the slot's report
// mark (core.Batcher.Mark) differs from the one the client last saw. The
// mark moves on every report the slot accepts and never repeats, and reads
// 0 once half a day has passed without reports, so the opaque digest built
// from it changes exactly when the slot's aggregates may have:
//
// Long-poll (default): the client passes the digest it last saw (from the
// previous response; "" on the first call). The server answers immediately
// when the slot's digest differs from it, otherwise it holds the request
// until a report lands or the wait budget elapses (204 No Content → poll
// again).
//
//	GET /v1/subscribe?slot=102&roads=1,2&digest=<prev>&wait=30s
//
// SSE (stream=sse): the response is a text/event-stream of estimate events,
// one per new report of the slot (the first immediately), until the client
// disconnects or the request deadline closes the stream.
//
//	GET /v1/subscribe?slot=102&roads=1,2&stream=sse

type subscribeResponse struct {
	Slot     int                `json:"slot"`
	Seq      uint64             `json:"seq"`
	Observed int                `json:"observed_roads"`
	Digest   string             `json:"digest"` // pass back as ?digest= on the next poll
	Speeds   map[string]float64 `json:"speeds"`
	// WarmStarted / SweepsSaved surface the incremental-GSP amortization for
	// this refresh.
	WarmStarted bool `json:"warm_started,omitempty"`
	SweepsSaved int  `json:"sweeps_saved,omitempty"`
}

// subscribePollInterval is how often a held long-poll / SSE stream re-reads
// the slot's report mark.
const subscribePollInterval = 25 * time.Millisecond

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	slotN, err := strconv.Atoi(q.Get("slot"))
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "slot: %v", err)
		return
	}
	slot := tslot.Slot(slotN)
	if !slot.Valid() {
		writeErr(w, r, http.StatusBadRequest, "slot %d out of range", slotN)
		return
	}
	n := s.sys.Network().N()
	var roads []int
	if raw := q.Get("roads"); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				writeErr(w, r, http.StatusBadRequest, "roads: %v", err)
				return
			}
			if id < 0 || id >= n {
				writeErr(w, r, http.StatusBadRequest, "road %d out of range", id)
				return
			}
			roads = append(roads, id)
		}
	} else {
		roads = make([]int, n)
		for i := range roads {
			roads[i] = i
		}
	}

	if q.Get("stream") == "sse" {
		s.subscribeSSE(w, r, slot, roads)
		return
	}
	s.subscribePoll(w, r, slot, roads, q.Get("digest"), q.Get("wait"))
}

// nextUpdate is the digest loop behind both /v1/subscribe modes. It re-reads
// the slot's report mark every subscribePollInterval until its digest
// differs from last, counting every unchanged check
// (crowdrtse_subscription_noop_refreshes_total), then estimates the slot
// through the Batcher at full tier, warm-started from the slot's previous
// field. The mark is read before the aggregates, so a report landing in
// between only brings one more update. It returns the update for roads with
// Seq unset, or nil when ctx or stop ends the wait first; a nil stop never
// fires.
func (s *Server) nextUpdate(ctx context.Context, slot tslot.Slot, roads []int, last string, stop <-chan time.Time) (*subscribeResponse, error) {
	ticker := time.NewTicker(subscribePollInterval)
	defer ticker.Stop()
	for {
		if digest := strconv.Itoa(s.batcher.Mark(slot)); digest != last {
			res, err := s.batcher.EstimateTier(ctx, qos.TierFull, slot, nil)
			if err != nil {
				return nil, err
			}
			out := &subscribeResponse{
				Slot:        int(slot),
				Observed:    res.ObservedRoads,
				Digest:      digest,
				Speeds:      make(map[string]float64, len(roads)),
				WarmStarted: res.WarmStarted,
				SweepsSaved: res.SweepsSaved,
			}
			for _, id := range roads {
				out.Speeds[strconv.Itoa(id)] = res.Speeds[id]
			}
			return out, nil
		}
		s.sys.Obs().Batch.NoopRefreshes.Inc()
		select {
		case <-ctx.Done():
			return nil, nil
		case <-stop:
			return nil, nil
		case <-ticker.C:
		}
	}
}

// subscribePoll implements the long-poll mode: one turn of the digest loop
// from the client's digest.
func (s *Server) subscribePoll(w http.ResponseWriter, r *http.Request, slot tslot.Slot, roads []int, prevDigest, waitRaw string) {
	wait := 25 * time.Second
	if waitRaw != "" {
		d, err := time.ParseDuration(waitRaw)
		if err != nil || d <= 0 {
			writeErr(w, r, http.StatusBadRequest, "wait: invalid duration %q", waitRaw)
			return
		}
		wait = d
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	up, err := s.nextUpdate(r.Context(), slot, roads, prevDigest, timer.C)
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	if up == nil {
		// The wait budget, the request deadline (withTimeout) or a client
		// disconnect ended the hold; 204 tells a live client to poll again.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	up.Seq = 1
	writeJSON(w, http.StatusOK, up)
}

// subscribeSSE implements the server-sent-events mode: the digest loop runs
// from "" (so the first event comes immediately) and again from each
// update's digest, and every update becomes one "estimate" event whose id is
// its sequence number.
func (s *Server) subscribeSSE(w http.ResponseWriter, r *http.Request, slot tslot.Slot, roads []int) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, r, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	last := ""
	for seq := uint64(1); ; seq++ {
		up, err := s.nextUpdate(r.Context(), slot, roads, last, nil)
		if err != nil {
			fmt.Fprintf(w, "event: error\ndata: %q\n\n", err.Error())
			flusher.Flush()
			return
		}
		if up == nil {
			return
		}
		up.Seq, last = seq, up.Digest
		data, err := json.Marshal(up)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: estimate\nid: %d\ndata: %s\n\n", seq, data)
		flusher.Flush()
	}
}
