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
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, &APIError{Code: CodeNotFound, Message: "no such job"})
		return
	}
	setJobHeaders(w, j)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	next := 0
	for {
		s.mu.Lock()
		pending := j.events[next:] // append-only: the snapshot is stable
		wake := j.wake
		terminal := j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
		s.mu.Unlock()

		for _, ev := range pending {
			if err := enc.Encode(ev); err != nil {
				return
			}
			next++
		}
		if len(pending) > 0 && flusher != nil {
			flusher.Flush()
		}
		// finish() appends job_finished under the same lock that sets
		// the terminal state, so a drained buffer on a terminal job is
		// complete.
		if terminal && len(pending) == 0 {
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
