package fleet

import (
	"encoding/json"
	"net/http"
)

// Handler serves the fleet JSON API:
//
//	GET /fleet/summary           — fleet-level Summary
//	GET /fleet/vehicle/{id}      — one vehicle's status (404 if unknown)
//	GET /fleet/failing           — currently failing (vehicle, ECU) streams
//	GET /fleet/resume/{id}/{ecu} — highest durably committed session of
//	                               one stream (0 when unknown); senders
//	                               reconnecting after a server restart
//	                               skip everything at or below it
//
// cmd/fleetd mounts it next to obs.NewMux's /metrics and /debug/pprof
// on one mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fleet/summary", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Summary())
	})
	mux.HandleFunc("GET /fleet/vehicle/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := s.Vehicle(r.PathValue("id"))
		if !ok {
			http.Error(w, "unknown vehicle", http.StatusNotFound)
			return
		}
		writeJSON(w, v)
	})
	mux.HandleFunc("GET /fleet/resume/{id}/{ecu}", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			Vehicle       string `json:"vehicle"`
			ECU           string `json:"ecu"`
			LastCommitted uint32 `json:"last_committed"`
			Degraded      bool   `json:"degraded"`
		}{
			Vehicle:       r.PathValue("id"),
			ECU:           r.PathValue("ecu"),
			LastCommitted: s.LastCommitted(r.PathValue("id"), r.PathValue("ecu")),
			Degraded:      s.StorageDegraded(),
		})
	})
	mux.HandleFunc("GET /fleet/failing", func(w http.ResponseWriter, r *http.Request) {
		failing := s.Failing()
		if failing == nil {
			failing = []FailingECU{} // render [] rather than null
		}
		writeJSON(w, failing)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
