package provhttp

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/provstore"
	"repro/internal/provtrace"
)

// Cross-process traces are merged at read time, not at record time: each
// process's trace store holds only the spans that process recorded, and
// GET /v1/traces/{id} on the *outer* daemon walks its backend chain for
// remote hops (cpdb:// clients) and folds their halves of the trace into
// the response. Record-time shipping would need new request or response
// fields on every endpoint — read-time merging keeps every data-path
// response byte-identical to a tracing-off daemon's, and the inner daemon
// merges its own inner hops the same way, so chains of any depth resolve
// transitively.

// traceFetcher is the capability a remote hop exposes for read-time trace
// merging — implemented by Client. FetchTrace returns (nil, nil) when the
// remote end has no trace endpoints or no such trace; absence is normal,
// not an error.
type traceFetcher interface {
	FetchTrace(ctx context.Context, id string) ([]provtrace.Span, error)
}

// traceFetchers returns every remote hop of the backend chain under b
// (provstore.Walk). The walk stops at each fetcher: a remote daemon answers
// for its own chain.
func traceFetchers(b provstore.Backend) []traceFetcher {
	var out []traceFetcher
	provstore.Walk(b, func(s provstore.Backend) bool {
		f, ok := s.(traceFetcher)
		if ok {
			out = append(out, f)
		}
		return !ok
	})
	return out
}

// handleTraces serves GET /v1/traces: stored trace summaries (no spans),
// newest first, filtered by ?min_dur= and capped by ?limit=.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	var minDur time.Duration
	if v := r.URL.Query().Get("min_dur"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			s.fail(w, fmt.Errorf("provhttp: bad min_dur %q: %w", v, err), http.StatusBadRequest)
			return
		}
		minDur = d
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.fail(w, fmt.Errorf("provhttp: bad limit %q", v), http.StatusBadRequest)
			return
		}
		limit = n
	}
	ts := s.traces.List(minDur, limit)
	if ts == nil {
		ts = []provtrace.Trace{}
	}
	writeJSON(w, map[string]any{"traces": ts})
}

// handleTraceGet serves GET /v1/traces/{id}: this daemon's half of the
// trace merged with every remote hop's half, fetched live from the chain.
// A hop that cannot answer (down, tracing off, trace evicted) is skipped —
// a partial tree beats hiding the half this daemon does hold.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := s.traces.Get(id)
	if tr == nil {
		s.fail(w, fmt.Errorf("provhttp: no trace %q", id), http.StatusNotFound)
		return
	}
	seen := make(map[string]bool, len(tr.Spans))
	for i := range tr.Spans {
		seen[tr.Spans[i].SpanID] = true
	}
	for _, f := range traceFetchers(s.inner) {
		spans, err := f.FetchTrace(r.Context(), id)
		if err != nil {
			continue
		}
		for _, sp := range spans {
			if !seen[sp.SpanID] {
				seen[sp.SpanID] = true
				tr.Spans = append(tr.Spans, sp)
			}
		}
	}
	writeJSON(w, tr)
}
