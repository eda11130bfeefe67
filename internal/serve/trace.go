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
	j := s.startStream(w, r)
	if j == nil {
		return
	}
	head := append(obs.SpanHeaderJSON(s.spans.Base()), '\n')
	streamNDJSON(w, r, head, func(next int) ([]obs.SpanRecord, <-chan struct{}, bool) {
		j.spanMu.Lock()
		defer j.spanMu.Unlock()
		// The root record is emitted after every child span, so a
		// drained buffer with spansDone set is the complete tree.
		return j.spans[next:], j.spanWake, j.spansDone
	}, func(b []byte, rec *obs.SpanRecord) []byte { return rec.AppendJSON(b) })
}
