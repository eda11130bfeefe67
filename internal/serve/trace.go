package serve

import (
	"net/http"

	"ghostbusters/internal/obs"
)

// handleTrace streams a job's host-span tree as NDJSON in the
// ghostbusters/span/v1 format: the schema header line first, then one
// record per finished span — everything buffered so far immediately,
// live spans as they finish, ending when the job's root span record
// lands (always the trace's last record; finish emits it after every
// child). Reconnecting replays the full buffer, exactly like the
// events stream: spans are retained with the job.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, &APIError{Code: CodeNotFound, Message: "no such job"})
		return
	}
	setJobHeaders(w, j)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	buf := append(obs.SpanHeaderJSON(s.spans.Base()), '\n')
	if _, err := w.Write(buf); err != nil {
		return
	}

	next := 0
	for {
		j.spanMu.Lock()
		pending := j.spans[next:] // append-only: the snapshot is stable
		wake := j.spanWake
		done := j.spansDone
		j.spanMu.Unlock()

		for i := range pending {
			buf = pending[i].AppendJSON(buf[:0])
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				return
			}
			next++
		}
		if len(pending) > 0 && flusher != nil {
			flusher.Flush()
		}
		// The root record is emitted after every child span, so a
		// drained buffer with spansDone set is the complete tree.
		if done && len(pending) == 0 {
			return
		}
		if len(pending) > 0 {
			continue // drain everything buffered before sleeping
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}
