package serve

import (
	"encoding/json"
	"net/http"
)

// Job event types streamed by GET /v1/jobs/{id}/events.
const (
	// EventCellStarted / EventCellFinished bracket one matrix cell
	// (run jobs are a single cell).
	EventCellStarted  = "cell_started"
	EventCellFinished = "cell_finished"
	// EventDetectAlarm is emitted when a cell's online detector fired
	// (jobs submitted with "detect": true).
	EventDetectAlarm = "detect_alarm"
	// EventJobFinished is always the stream's last event.
	EventJobFinished = "job_finished"
)

// JobEvent is one NDJSON row of a job's progress stream. Seq is a
// dense per-job sequence number, so a reconnecting client can detect
// gaps (the buffer is capped; see maxJobEvents).
type JobEvent struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"`

	// Cell identity, for cell_* and detect_alarm events.
	Bench string `json:"bench,omitempty"`
	Mode  string `json:"mode,omitempty"`
	Index int    `json:"index,omitempty"`
	Total int    `json:"total,omitempty"`

	// cell_finished detail.
	Cycles uint64 `json:"cycles,omitempty"`
	Error  string `json:"error,omitempty"`

	// detect_alarm detail.
	Alarm      bool    `json:"alarm,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	AlarmCycle uint64  `json:"alarm_cycle,omitempty"`

	// job_finished detail: the terminal state.
	State string `json:"state,omitempty"`
}

// maxJobEvents bounds the per-job event buffer (a fig4 sweep is ~300
// events; the cap only matters for adversarial mode lists). Once full,
// further cell events are dropped — the terminal job_finished event is
// always appended, so streams still end cleanly.
const maxJobEvents = 4096

// appendEventLocked records one event and wakes every streaming
// reader; the caller holds s.mu.
func (s *Server) appendEventLocked(j *Job, ev JobEvent) {
	if len(j.events) >= maxJobEvents && ev.Type != EventJobFinished {
		return
	}
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	close(j.wake)
	j.wake = make(chan struct{})
}

// appendEvent is appendEventLocked for callers not holding s.mu — the
// harness worker goroutines' OnCell callbacks land here.
func (s *Server) appendEvent(j *Job, ev JobEvent) {
	s.mu.Lock()
	s.appendEventLocked(j, ev)
	s.mu.Unlock()
}

// handleEvents streams a job's progress as NDJSON: everything buffered
// so far immediately, then live events as they happen, ending with the
// job_finished row. Reconnecting replays the full buffer (events are
// retained with the job).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.startStream(w, r)
	if j == nil {
		return
	}
	streamNDJSON(w, r, nil, func(next int) ([]JobEvent, <-chan struct{}, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		// finish() appends job_finished under the same lock that sets
		// the terminal state, so a drained buffer on a terminal job is
		// complete.
		return j.events[next:], j.wake, j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
	}, func(b []byte, ev *JobEvent) []byte {
		row, _ := json.Marshal(ev) // flat strings and numbers: cannot fail
		return append(b, row...)
	})
}

// startStream looks up the job named in the request path and starts its
// NDJSON response, or answers 404 and returns nil.
func (s *Server) startStream(w http.ResponseWriter, r *http.Request) *Job {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, &APIError{Code: CodeNotFound, Message: "no such job"})
		return nil
	}
	setJobHeaders(w, j)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	return j
}

// streamNDJSON replays an append-only buffer as NDJSON and then follows
// it: it writes head, then every row buffered so far, flushing after
// each batch, and sleeps until more rows arrive. It ends once a drained
// buffer is complete, or when the client goes away. snap returns the
// rows from index next on (a stable view, since the buffer only grows),
// a channel closed on the next append, and whether the buffer was
// complete when read; row appends one row's JSON to b.
func streamNDJSON[T any](w http.ResponseWriter, r *http.Request, head []byte,
	snap func(next int) (rows []T, wake <-chan struct{}, done bool),
	row func(b []byte, v *T) []byte) {
	flusher, _ := w.(http.Flusher)
	if len(head) > 0 {
		if _, err := w.Write(head); err != nil {
			return
		}
	}
	var b []byte
	for next := 0; ; {
		rows, wake, done := snap(next)
		for i := range rows {
			b = append(row(b[:0], &rows[i]), '\n')
			if _, err := w.Write(b); err != nil {
				return
			}
		}
		next += len(rows)
		if len(rows) > 0 {
			if flusher != nil {
				flusher.Flush()
			}
			continue // drain everything buffered before sleeping
		}
		if done {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}
