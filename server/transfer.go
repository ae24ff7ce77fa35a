package server

import (
	"net/http"
	"time"

	"bear"
)

// Graph state transfer: GET export streams one graph's full dynamic
// serving state (the same BEARDY01 framing the registry snapshot embeds,
// self-checksummed), and PUT import registers a graph from such a stream.
// Together they are the anti-entropy primitive the bearfront coordinator's
// /v1/cluster/repair uses to re-push a graph from a healthy replica to a
// lagging one without re-running preprocessing — the factors travel, not
// the edge list.

// handleExport serves GET /v1/graphs/{name}/export.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request, name string, e *entry) {
	w.Header().Set("Content-Type", "application/octet-stream")
	// SaveState holds the graph's lock while serializing, so the blob is a
	// consistent point-in-time state even under concurrent updates. A
	// failure mid-stream cannot be turned into a clean HTTP error anymore
	// (headers are out), but the BEARDY01 footer makes the receiver reject
	// the truncated blob.
	if err := e.dyn.SaveState(w); err != nil {
		s.logf("exporting graph %q: %v", name, err)
	}
}

// handleImport serves PUT /v1/graphs/{name}/import: the body is a blob
// previously produced by export (or Dynamic.SaveState), and the graph is
// registered under {name} — replacing any existing graph of that name —
// without a preprocessing pass.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validateName(name); err != nil {
		writeError(w, errBadRequest("%v", err))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)
	dyn, err := bear.LoadDynamic(body)
	if err != nil {
		writeError(w, errBadRequest("importing graph state: %v", err))
		return
	}
	s.applyRebuildPolicy(dyn)
	e := &entry{dyn: dyn, opts: dyn.Options(), created: time.Now(), gen: nextGen.Add(1)}
	s.mu.Lock()
	s.graphs[name] = e
	s.mu.Unlock()
	s.exportGraphMetrics(name, e)
	writeJSON(w, http.StatusCreated, e.info(name))
}
