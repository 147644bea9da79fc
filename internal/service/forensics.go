package service

import (
	"encoding/json"
	"net/http"
	"sort"

	"hira/internal/sim"
)

// PolicyForensics pairs one policy name with its aggregated RowHammer
// forensics summary.
type PolicyForensics struct {
	Policy    string                `json:"policy"`
	Forensics *sim.ForensicsSummary `json:"forensics"`
}

// ForensicsView is the body of GET /v1/jobs/{id}/forensics: the job's
// per-policy forensics summaries, aggregated across every sweep point
// and workload mix the job ran (tallies summed, maxes maxed).
type ForensicsView struct {
	JobID    string            `json:"job_id"`
	Kind     string            `json:"kind"`
	Policies []PolicyForensics `json:"policies"`
}

// collectForensics extracts per-policy forensics summaries from a
// finished job's result payload. An empty slice means the job carried
// none (kind cannot, or the spec did not enable forensics).
func collectForensics(spec JobSpec, raw json.RawMessage) ([]PolicyForensics, error) {
	byName := map[string]*sim.ForensicsSummary{}
	fold := func(m map[string]*sim.ForensicsSummary) {
		for name, fx := range m {
			byName[name] = sim.MergeForensics(byName[name], fx)
		}
	}
	switch spec.Kind {
	case KindPolicies:
		var res PoliciesResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return nil, err
		}
		for _, sc := range res.Policies {
			if sc.Forensics != nil {
				byName[sc.Policy.Name] = sim.MergeForensics(byName[sc.Policy.Name], sc.Forensics)
			}
		}
	case KindCharacterize, KindSecurity, KindArea:
		return nil, nil
	default: // a figure-table kind
		var res sim.FigureResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return nil, err
		}
		for _, row := range res.Fig9 {
			fold(row.Forensics)
		}
		for _, row := range res.Fig12 {
			fold(row.Forensics)
		}
		for _, row := range res.Scale {
			fold(row.Forensics)
		}
		for _, row := range res.Attack {
			fold(row.Forensics)
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]PolicyForensics, 0, len(names))
	for _, name := range names {
		out = append(out, PolicyForensics{Policy: name, Forensics: byName[name]})
	}
	return out, nil
}

// handleForensics serves a finished job's RowHammer forensics report:
// JSON by default, the flight recorder's command log in Chrome
// trace-event format (loadable at ui.perfetto.dev) with ?format=chrome.
func (s *Server) handleForensics(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	v := j.snapshot()
	if v.Result == nil {
		writeError(w, http.StatusConflict, "job %s has no result yet (state %s)", v.ID, v.State)
		return
	}
	policies, err := collectForensics(v.Spec, v.Result)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "decode job result: %v", err)
		return
	}
	if len(policies) == 0 {
		writeError(w, http.StatusNotFound,
			`job %s recorded no forensics; submit with "sim": {"forensics": true}`, v.ID)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		var merged *sim.ForensicsSummary
		for _, p := range policies {
			merged = sim.MergeForensics(merged, p.Forensics)
		}
		w.Header().Set("Content-Type", "application/json")
		merged.WriteChrome(w)
		return
	}
	writeJSON(w, http.StatusOK, ForensicsView{JobID: v.ID, Kind: v.Spec.Kind, Policies: policies})
}
