package service

// GET /v1/events — the live operations stream. Server-Sent Events over
// the internal bus (internal/events): every event the daemon publishes
// — request completions, materializations, cache evictions, quota
// refusals, admission-gate resolutions, cluster round transitions,
// peer-health changes, join results — framed as
//
//	id: <seq>
//	event: <type>
//	data: <JSON Event>
//
// with three knobs a consumer controls per subscription:
//
//   - ?types=a,b,c filters to the named event types (the wire names of
//     internal/events; bad names are 400). Empty means everything.
//   - Last-Event-ID (the SSE reconnect header) or ?from=<seq> resumes
//     after the given sequence number, replaying whatever suffix of
//     (seq, head] the bounded replay ring still holds. A consumer can
//     detect ring-bound loss by comparing the first id received
//     against its last + 1. Absent both, the stream is live-only.
//   - Disconnecting (closing the response) frees the subscriber slot.
//
// Delivery is best-effort by the bus contract: a consumer that reads
// slower than the daemon publishes loses events (counted in
// permd_events_dropped_total), and the stream never slows a byte
// served. The hard subscriber cap answers 503 so a scrape storm of
// dashboards cannot accumulate unbounded per-subscriber buffers.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"randperm/internal/events"
	"randperm/internal/query"
)

// eventsKeepalive is how often an idle stream writes an SSE comment so
// a dead TCP peer is discovered and its subscriber slot freed even
// when no events flow.
const eventsKeepalive = 15 * time.Second

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rd := query.New(r.URL.Query())
	filter, err := events.ParseFilter(rd.Get("types"))
	rd.Check(err == nil, "bad types filter: %v", err)
	after := s.bus.LastSeq() // default: live-only
	if r.Header.Get("Last-Event-ID") != "" {
		after = rd.HeaderSeq(r.Header, "Last-Event-ID", after)
	} else {
		after = rd.Seq("from", after)
	}
	if s.refused(w, rd) {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.httpError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	sub, err := s.bus.Subscribe(filter, after)
	if err != nil {
		if errors.Is(err, events.ErrSubscriberLimit) {
			w.Header().Set("Retry-After", "5")
			s.httpError(w, http.StatusServiceUnavailable,
				"event subscriber limit (%d) reached", s.cfg.Events.MaxSubscribers)
			return
		}
		s.httpError(w, http.StatusInternalServerError, "subscribing: %v", err)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	keepalive := time.NewTicker(eventsKeepalive)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-sub.Events():
			data, err := json.Marshal(ev)
			if err != nil {
				return // cannot happen for Event; bail rather than corrupt the frame
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
				return // client went away
			}
			fl.Flush()
		case <-keepalive.C:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
