package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit (202, or structured 4xx/5xx rejection)
//	GET    /v1/jobs/{id}        status (?wait=1 blocks until terminal)
//	GET    /v1/jobs/{id}/output rendered output of a finished job (text/plain)
//	GET    /v1/jobs/{id}/events live NDJSON progress stream (cells, detector alarms)
//	GET    /v1/jobs/{id}/trace  the job's host-span tree (span/v1 NDJSON, live + replay)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /healthz             liveness (always 200 while the process serves)
//	GET    /readyz              admission readiness (503 once draining)
//	GET    /metrics             Prometheus text exposition
//
// The returned handler wraps the mux in structured request logging:
// every request is assigned a sequential X-Request-Id, and the access
// line carries the job/tenant correlation IDs the handlers annotate
// via response headers.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/output", s.handleOutput)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.logRequests(mux)
}

// logResponseWriter captures status and byte count for the access log.
// Flush is forwarded so the NDJSON streaming endpoints (events, trace)
// keep flushing per row through the wrapper.
type logResponseWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *logResponseWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *logResponseWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *logResponseWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// setJobHeaders sets a job's correlation headers. A tenant name with a
// control byte, which HTTP forbids in a header, goes out quoted.
func setJobHeaders(w http.ResponseWriter, j *Job) {
	tenant := j.Tenant
	if strings.ContainsFunc(tenant, unicode.IsControl) {
		tenant = strconv.QuoteToASCII(tenant)
	}
	w.Header().Set("X-Job-Id", j.ID)
	w.Header().Set("X-Tenant", tenant)
}

// logRequests is the access-log middleware: one structured line per
// request with a sequential request ID, method, path, status, bytes,
// duration, and the job/tenant correlation IDs the handler attached
// as X-Job-Id / X-Tenant response headers.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := s.reqSeq.Add(1)
		lw := &logResponseWriter{ResponseWriter: w, status: http.StatusOK}
		lw.Header().Set("X-Request-Id", strconv.FormatUint(rid, 10))
		start := time.Now()
		next.ServeHTTP(lw, r)
		job := lw.Header().Get("X-Job-Id")
		if job == "" {
			job = "-"
		}
		tenant := lw.Header().Get("X-Tenant")
		if tenant == "" {
			tenant = "-"
		}
		s.log.Printf("serve: http rid=%d method=%s path=%s status=%d bytes=%d dur=%s job=%s tenant=%s",
			rid, r.Method, r.URL.Path, lw.status, lw.bytes, time.Since(start).Round(time.Microsecond), job, tenant)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, aerr *APIError) {
	if aerr.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(aerr.RetryAfterSec))
	}
	writeJSON(w, status, struct {
		Error *APIError `json:"error"`
	}{aerr})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	body := http.MaxBytesReader(w, r.Body, 2<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				&APIError{Code: CodeInvalid, Message: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeError(w, http.StatusBadRequest,
			&APIError{Code: CodeInvalid, Message: "malformed JSON: " + err.Error()})
		return
	}
	j, status, aerr := s.admit(req)
	if aerr != nil {
		writeError(w, status, aerr)
		return
	}
	setJobHeaders(w, j)
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.done:
		case <-r.Context().Done():
			writeError(w, http.StatusRequestTimeout,
				&APIError{Code: CodeCanceled, Message: "client went away while waiting; job continues", RetryAfterSec: 1})
			return
		}
	}
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	writeJSON(w, status, st)
}

func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, &APIError{Code: CodeNotFound, Message: "no such job"})
		return
	}
	setJobHeaders(w, j)
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.done:
		case <-r.Context().Done():
		}
	}
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleOutput renders a finished job's primary output as text/plain:
// the sweep table for kernel/fig4 jobs (byte-identical to the gbbench
// stdout for the same experiment) or the gbrun-style summary line for
// run jobs.
func (s *Server) handleOutput(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, &APIError{Code: CodeNotFound, Message: "no such job"})
		return
	}
	setJobHeaders(w, j)
	s.mu.Lock()
	state, res, aerr := j.state, j.result, j.apiErr
	s.mu.Unlock()
	switch state {
	case StateDone:
	case StateFailed, StateCanceled:
		writeError(w, http.StatusConflict, aerr)
		return
	default:
		writeError(w, http.StatusConflict,
			&APIError{Code: CodeInvalid, Message: "job is " + state + "; output exists once it is done", RetryAfterSec: 1})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if j.Req.Kind == KindRun {
		fmt.Fprintf(w, "exit=%d cycles=%d instret=%d\n", res.ExitCode, res.Cycles, res.Instret)
		return
	}
	_, _ = w.Write([]byte(res.Table))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, &APIError{Code: CodeNotFound, Message: "no such job"})
		return
	}
	setJobHeaders(w, j)
	j.cancel()
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}
