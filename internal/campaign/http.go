package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"nsmac/internal/sweep"
)

// maxBodyBytes bounds request bodies (manifests and shard envelopes). 64
// MiB is far beyond any real sweep document but keeps a confused client
// from exhausting the server.
const maxBodyBytes = 64 << 20

// Handler builds the server's HTTP API:
//
//	POST /v1/campaigns                                submit a manifest → {"campaign": id}
//	GET  /v1/campaigns                                all campaign statuses
//	GET  /v1/campaigns/{id}                           one campaign status
//	GET  /v1/campaigns/{id}/grids/{grid}/results      merged results (?format=text|csv|json),
//	                                                  partial while shards are in flight;
//	                                                  X-Nsmac-Complete: true|false,
//	                                                  X-Nsmac-Shards-Done: <done>/<total>
//	POST /v1/lease                                    ?worker=<id> → 200 LeaseGrant | 204 no work
//	POST /v1/lease/{id}/heartbeat                     renew → {"lease_seconds": s}
//	POST /v1/lease/{id}/complete                      upload envelope → {"duplicate": bool}
//	POST /v1/lease/{id}/fail                          report executor failure, requeue shard
//
// Errors are JSON {"error": "..."}: 400 for bad input, 404 for unknown
// campaigns/grids, 409 for results not yet available, 410 Gone for lost
// leases (the worker's signal to abandon the shard).
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		m, err := ParseManifest(body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		id, err := s.Submit(m)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, submitResponse{Campaign: id})
	})

	mux.HandleFunc("GET /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Campaigns())
	})

	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/campaigns/{id}/grids/{grid}/results", func(w http.ResponseWriter, r *http.Request) {
		format := r.URL.Query().Get("format")
		if format == "" {
			format = "text"
		}
		out, done, total, err := s.Results(r.PathValue("id"), r.PathValue("grid"), format)
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		w.Header().Set("Content-Type", contentTypeFor(format))
		w.Header().Set("X-Nsmac-Complete", strconv.FormatBool(done == total))
		w.Header().Set("X-Nsmac-Shards-Done", fmt.Sprintf("%d/%d", done, total))
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, out)
	})

	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		worker := r.URL.Query().Get("worker")
		if worker == "" {
			worker = "anonymous"
		}
		grant, err := s.Lease(worker)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		if grant == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, grant)
	})

	mux.HandleFunc("POST /v1/lease/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		secs, err := s.Heartbeat(r.PathValue("id"))
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, heartbeatResponse{LeaseSeconds: secs})
	})

	mux.HandleFunc("POST /v1/lease/{id}/complete", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		env, err := sweep.DecodeShardResult(body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		dup, err := s.Complete(r.PathValue("id"), env)
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, completeResponse{Duplicate: dup})
	})

	mux.HandleFunc("POST /v1/lease/{id}/fail", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		var req failRequest
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("campaign: bad fail body: %w", err))
				return
			}
		}
		if err := s.Fail(r.PathValue("id"), req.Error); err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, struct{}{})
	})

	return mux
}

// statusFor maps the package's sentinel errors onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrLeaseLost):
		return http.StatusGone
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrNoResults):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// contentTypeFor maps a render format onto its media type.
func contentTypeFor(format string) string {
	switch format {
	case "json":
		return "application/json"
	case "csv":
		return "text/csv; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

// readBody reads a request body of at most maxBodyBytes. A body that
// declares its length is read into one buffer of exactly that size, and
// refused unread when the length is over the limit; a chunked body (no
// declared length) is read up to one byte past the limit.
func readBody(r *http.Request) ([]byte, error) {
	n := r.ContentLength
	if n > maxBodyBytes {
		return nil, fmt.Errorf("campaign: request body of %d bytes exceeds %d bytes", n, maxBodyBytes)
	}
	if n >= 0 {
		data := make([]byte, n)
		if _, err := io.ReadFull(r.Body, data); err != nil {
			return nil, fmt.Errorf("campaign: reading request body: %w", err)
		}
		return data, nil
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("campaign: reading request body: %w", err)
	}
	if len(data) > maxBodyBytes {
		return nil, fmt.Errorf("campaign: request body exceeds %d bytes", maxBodyBytes)
	}
	return data, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

func writeErr(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, _ := json.Marshal(errorResponse{Error: err.Error()})
	w.Write(data)
	w.Write([]byte("\n"))
}
