// /api/query: the VQL endpoint. One engine is built over the served
// benchmark at construction; a store-backed server additionally feeds it
// the store's secondary indexes (SetQueryIndexes) so equality
// predicates on db/chart/hardness answer from postings instead of a full
// scan. Queries are read-only and the engine is immutable after setup,
// so requests execute concurrently without locking.

package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"nvbench/internal/obs"
	"nvbench/internal/vql"
)

// maxQueryBody bounds a POSTed query body; real queries are a few hundred
// bytes, so anything larger is a client error, not a buffer to grow.
const maxQueryBody = 1 << 16

// queryRequest is the POST body shape of /api/query.
type queryRequest struct {
	Query string `json:"query"`
}

// queryError is the JSON error shape of /api/query: the message, plus the
// 1-based byte position for syntax errors (0 when not positional).
type queryError struct {
	Error    string `json:"error"`
	Position int    `json:"position,omitempty"`
}

// SetQueryIndexes hands the engine the store's secondary indexes. Call
// after SetEntryETags: index postings are entry content hashes, and the
// etags — positionally aligned with the engine's rows — are how the
// engine resolves them. Not safe concurrently with requests.
func (s *Server) SetQueryIndexes(indexes map[string]vql.Index) error {
	return s.engine.SetIndexes(s.etags, indexes)
}

// recomputeQueryTag refreshes the cache validator base for /api/query
// responses: a hash over the per-entry validators, so a rebuilt store
// invalidates cached query results exactly when it invalidates entries.
func (s *Server) recomputeQueryTag() {
	h := sha256.New()
	for _, tag := range s.etags {
		h.Write([]byte(tag))
		h.Write([]byte{0})
	}
	s.queryTag = hex.EncodeToString(h.Sum(nil))
}

// queryText extracts the VQL text for one request: ?q= on GET, a JSON
// {"query": ...} body on POST.
func queryText(r *http.Request) (string, error) {
	switch r.Method {
	case http.MethodGet:
		return r.URL.Query().Get("q"), nil
	case http.MethodPost:
		var req queryRequest
		body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBody))
		if err != nil {
			return "", errors.New("read body: " + err.Error())
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return "", errors.New(`bad body: want {"query": "SELECT ..."}`)
		}
		return req.Query, nil
	default:
		return "", nil
	}
}

// writeQueryError answers with the JSON error shape at the given status.
// Marshal cannot fail on queryError (plain string + int), but the encode
// still happens before any byte is written so the status line is always
// consistent with the body.
func (s *Server) writeQueryError(w http.ResponseWriter, status int, qe queryError) {
	data, err := json.MarshalIndent(qe, "", "  ")
	if err != nil {
		http.Error(w, qe.Error, status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeBytes(s, w, append(data, '\n'))
}

func (s *Server) handleAPIQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		s.writeQueryError(w, http.StatusMethodNotAllowed, queryError{Error: "use GET ?q= or POST {\"query\": ...}"})
		return
	}
	q, err := queryText(r)
	if err != nil {
		s.writeQueryError(w, http.StatusBadRequest, queryError{Error: err.Error()})
		return
	}
	if strings.TrimSpace(q) == "" {
		s.writeQueryError(w, http.StatusBadRequest, queryError{Error: "empty query"})
		return
	}

	// The result is a pure function of (store content, query text), so the
	// validator is a hash of both: identical queries against an unchanged
	// store revalidate with 304 before any execution work.
	sum := sha256.Sum256([]byte(s.queryTag + "\x00" + q))
	if revalidate(w, r, `"`+hex.EncodeToString(sum[:])+`"`) {
		return
	}

	// One timed record: the query stage histogram (with the request's op
	// ID as the bucket exemplar) and the vql wide event.
	t := s.cfg.Obs.Begin(r.Context(), obs.LayerVQL, "query")
	res, err := s.engine.Query(q)
	if err != nil {
		t.End("error", "error", err.Error())
		var verr *vql.Error
		if errors.As(err, &verr) {
			s.writeQueryError(w, http.StatusBadRequest, queryError{Error: verr.Msg, Position: verr.Pos})
			return
		}
		s.writeQueryError(w, http.StatusInternalServerError, queryError{Error: err.Error()})
		return
	}
	shards, failover := s.queryShards(res)
	t.End("ok",
		"rows", strconv.Itoa(res.RowCount),
		"scanned", strconv.Itoa(res.Scanned),
		"index", res.Index,
		"shards", strings.Join(shards, " "),
		"failover", strconv.FormatBool(failover))
	writeJSON(s, w, res)
}

// queryShards resolves which store shards a query's scan touched — the
// owning shards of the scanned entries, every shard for a full scan — and
// whether any of them is currently served from a non-primary replica. A
// server without shard routing (no store, unsharded store) reports none.
func (s *Server) queryShards(res *vql.Result) ([]string, bool) {
	if len(s.entryShards) == 0 || res.Table != "entries" {
		return nil, false
	}
	shards := s.allShards
	if res.SourceRows != nil {
		set := map[string]bool{}
		for _, n := range res.SourceRows {
			if n >= 0 && n < len(s.entryShards) && s.entryShards[n] != "" {
				set[s.entryShards[n]] = true
			}
		}
		shards = sortedSet(set)
	}
	failover := false
	if d := s.degraded.Load(); d != nil {
		over := make(map[string]bool, len(d.FailedOver))
		for _, sh := range d.FailedOver {
			over[sh] = true
		}
		for _, sh := range shards {
			if over[sh] {
				failover = true
				break
			}
		}
	}
	return shards, failover
}

// sortedSet returns the members of set in sorted order.
func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
