package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
)

// NewHandler exposes a Service over HTTP:
//
//	POST   /v1/jobs              submit a JobSpec            -> 202 JobView
//	GET    /v1/jobs[?tenant=t]   list jobs                   -> 200 [JobView]
//	GET    /v1/jobs/{id}         job status                  -> 200 JobView
//	GET    /v1/jobs/{id}/result  final result                -> 200 Result
//	GET    /v1/jobs/{id}/events  NDJSON lifecycle stream     -> 200 Event...
//	DELETE /v1/jobs/{id}         cancel                      -> 202 JobView
//	POST   /v1/jobs/{id}/preempt vacate + migrate            -> 202 JobView
//	GET    /healthz              liveness                    -> 200 Health
//	GET    /metrics              Prometheus text exposition  -> 200
//
// Errors are JSON {"error": "..."} with the status the error class maps
// to: 400 invalid spec, 404 unknown job, 409 result not ready, 429
// admission shed (with Retry-After), 503 shutting down.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		spec, err := DecodeJobSpec(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			writeError(w, &ValidationError{Err: err})
			return
		}
		v, err := s.Submit(spec)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, v)
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		views := s.List(r.URL.Query().Get("tenant"))
		if views == nil {
			views = []JobView{}
		}
		writeJSON(w, http.StatusOK, views)
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		res, err := s.Result(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		fl, _ := w.(http.Flusher)
		after := 0
		for {
			evs, terminal, err := s.Events(r.Context(), id, after)
			if err != nil {
				if after == 0 && errors.Is(err, ErrNotFound) {
					writeError(w, err)
				}
				return
			}
			for _, e := range evs {
				if enc.Encode(e) != nil {
					return
				}
			}
			after += len(evs)
			if fl != nil {
				fl.Flush()
			}
			if terminal {
				return
			}
		}
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, v)
	})

	mux.HandleFunc("POST /v1/jobs/{id}/preempt", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.Preempt(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, v)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Health())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.WriteMetrics(w)
	})

	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError maps the service's error classes to HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	var ve *ValidationError
	var oe *OverloadError
	var nr *NotReadyError
	status := http.StatusInternalServerError
	switch {
	case errors.As(err, &ve):
		status = http.StatusBadRequest
	case errors.As(err, &oe):
		w.Header().Set("Retry-After", strconv.Itoa(oe.RetryAfter))
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.As(err, &nr):
		status = http.StatusConflict
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
