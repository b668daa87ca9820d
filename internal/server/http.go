package server

// HTTP control plane and ingest path, on the stdlib mux only. Routes use
// Go 1.22 method patterns, so a wrong-method hit on a known path gets 405
// with an Allow header for free. Every response is JSON; rejections carry
// an "error" field plus Retry-After where a retry is the right move.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/checkpoint"
)

// Routes installs the control plane, ingest, and health handlers on mux,
// typically next to the telemetry registry's own /metrics and /debug
// routes. The /v1 surface is readiness-gated (see health.go): between
// BeginBoot and Recover it answers 503 + Retry-After; the health probes
// themselves are never gated.
func (s *Server) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/streams", s.gated(s.handleCreate))
	mux.HandleFunc("GET /v1/streams", s.gated(s.handleList))
	mux.HandleFunc("GET /v1/streams/{id}", s.gated(s.handleStatus))
	mux.HandleFunc("DELETE /v1/streams/{id}", s.gated(s.handleDelete))
	mux.HandleFunc("POST /v1/streams/{id}/records", s.gated(s.handleIngest))
	mux.HandleFunc("POST /v1/streams/{id}/close", s.gated(s.handleClose))
	mux.HandleFunc("POST /v1/streams/{id}/pause", s.gated(s.handlePause))
	mux.HandleFunc("POST /v1/streams/{id}/resume", s.gated(s.handleResume))
	mux.HandleFunc("GET /v1/streams/{id}/windows", s.gated(s.handleWindows))
	mux.HandleFunc("GET /v1/streams/{id}/trace", s.gated(s.handleTrace))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// parseCreateRequest decodes and validates a create-stream body. Split out
// (and fuzzed) separately from the handler: this is the server's largest
// attacker-controlled surface. An unknown field is refused rather than
// ignored: a client asking for something this server does not do must get
// a 400, not a stream that silently lacks it.
func parseCreateRequest(body []byte) (StreamConfig, error) {
	var cfg StreamConfig
	if len(body) == 0 {
		return cfg, fmt.Errorf("empty request body")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("decoding create request: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return cfg, fmt.Errorf("decoding create request: trailing data after the JSON object")
	}
	if err := cfg.validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := readBodyLimited(w, r, 1<<20)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfg, err := parseCreateRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	status, err := s.Create(cfg)
	switch {
	case err == nil:
		writeJSON(w, http.StatusCreated, status)
	case errors.Is(err, errDraining), errors.Is(err, errTooManyStreams):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, errStreamExists), errors.Is(err, checkpoint.ErrLeaseHeld):
		writeError(w, http.StatusConflict, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Streams []StreamStatus `json:"streams"`
	}{Streams: s.List()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	status, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.Delete(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Deleted string `json:"deleted"`
	}{Deleted: r.PathValue("id")})
}

// ingestResponse reports partial acceptance: on 429/503 the client resumes
// from its (accepted)th line. AcceptedLines is the stream's cumulative
// accepted-line total after the request — the authoritative resume offset,
// which can exceed what the client has seen acknowledged when recovery
// adopted frames from a request whose response never arrived.
type ingestResponse struct {
	Accepted      int    `json:"accepted"`
	Bad           int    `json:"bad"`
	AcceptedLines uint64 `json:"accepted_lines"`
	Error         string `json:"error,omitempty"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	st := s.get(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", errStreamNotFound, r.PathValue("id")))
		return
	}
	// ?offset=N is the client's count of lines it knows the stream accepted;
	// the stream skips the overlap so a retry after a lost 2xx cannot
	// double-ingest. Omitted: append blindly (the pre-durability behavior).
	offset := int64(-1)
	if q := r.URL.Query().Get("offset"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid offset=%q", q))
			return
		}
		offset = n
	}
	accepted, bad, err := st.ingest(r.Body, offset)
	resp := ingestResponse{Accepted: accepted, Bad: bad, AcceptedLines: st.lines.Load()}
	if err != nil {
		resp.Error = err.Error()
	}
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, errBackpressure):
		s.metrics.rejection(rejectBackpressure).Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, resp)
	case errors.Is(err, errOverload):
		s.metrics.rejection(rejectOverload).Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, resp)
	case errors.Is(err, errStreamPaused):
		s.metrics.rejection(rejectPaused).Inc()
		writeJSON(w, http.StatusConflict, resp)
	case errors.Is(err, errStreamQuarantined):
		s.metrics.rejection(rejectQuarantined).Inc()
		writeJSON(w, http.StatusConflict, resp)
	case errors.Is(err, errStreamClosed):
		s.metrics.rejection(rejectClosed).Inc()
		writeJSON(w, http.StatusConflict, resp)
	case errors.Is(err, errOffsetGap):
		// The client believes lines were accepted that the stream never
		// saw — resending from the offset would leave a hole. Not retryable
		// without operator attention.
		writeJSON(w, http.StatusConflict, resp)
	case errors.Is(err, errDurability):
		// The group's fsync failed and the whole request was unwound; the
		// client re-sends from its own offset.
		writeJSON(w, http.StatusInternalServerError, resp)
	default:
		// The request body itself failed mid-read (truncated upload,
		// dropped connection). Everything accepted stays accepted.
		writeJSON(w, http.StatusBadRequest, resp)
	}
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	s.controlOp(w, r, s.CloseIngest)
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	s.controlOp(w, r, s.Pause)
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	s.controlOp(w, r, s.Resume)
}

func (s *Server) controlOp(w http.ResponseWriter, r *http.Request, op func(string) (StreamStatus, error)) {
	status, err := op(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, status)
	case errors.Is(err, errStreamNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusConflict, err)
	}
}

func (s *Server) handleWindows(w http.ResponseWriter, r *http.Request) {
	st := s.get(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", errStreamNotFound, r.PathValue("id")))
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid from=%q", q))
			return
		}
		from = n
	}
	windows, truncated := st.windowsFrom(from)
	writeJSON(w, http.StatusOK, struct {
		Stream    string            `json:"stream"`
		Windows   []publishedWindow `json:"windows"`
		Truncated bool              `json:"truncated"`
	}{Stream: st.id, Windows: windows, Truncated: truncated})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	st := s.get(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", errStreamNotFound, r.PathValue("id")))
		return
	}
	if st.tracer.Capacity() == 0 {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("stream %s has no flight recorder (create with trace_windows > 0)", st.id))
		return
	}
	st.tracer.Handler().ServeHTTP(w, r)
}

// readBodyLimited reads at most limit bytes; beyond it the request is
// refused rather than truncated.
func readBodyLimited(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, fmt.Errorf("request body exceeds %d bytes", limit)
		}
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	return body, nil
}
