package serve

// The /v1 wire contract shared by giantd, per-shard giantd and
// giantrouter (see docs/ARCHITECTURE.md, "/v1 API contract"):
//
//   - every error response is the one envelope
//     {"error":{"code","message","shard","generation"}} with a
//     machine-readable code from the set below, a /v1 path no daemon
//     routes included (404 not_found, see unknownEndpoint);
//   - every routed response carries an X-Giant-Generation header
//     (per-shard "shard:gen" pairs on router responses) and, on
//     delta-log replicas, X-Giant-Wal-Gen with the last applied log
//     generation;
//   - the one write, /v1/ingest, is taken only by a router with a delta
//     log (every giantd answers 503) and answers in one per-shard
//     {shard, generation, applied} row schema, the same rows a replica's
//     apply report carries;
//   - /v1/search query parameters parse through one shared helper so
//     limits clamp — and malformed input rejects — identically in
//     every serving mode (the router's merged bodies, error paths
//     included, must stay byte-identical to the in-process server's).

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
)

// Machine-readable error codes carried by every /v1 error envelope.
// Status semantics are unchanged from the pre-envelope API; the code
// disambiguates responses that share a status (e.g. the 503s for a
// server that takes no write vs. a log-tailing replica).
const (
	codeInvalidArgument  = "invalid_argument"   // 400: malformed query/body
	codeInvalidLimit     = "invalid_limit"      // 400: non-numeric or non-positive ?limit=
	codeInvalidBatch     = "invalid_batch"      // 422: delta.ErrInvalidBatch
	codePayloadTooLarge  = "payload_too_large"  // 413: request body past maxBodyBytes
	codeNotFound         = "not_found"          // 404
	codeMethodNotAllowed = "method_not_allowed" // 405
	codeUnavailable      = "unavailable"        // 503: endpoint not wired in this mode, or a write outside the log
	codeShardUnavailable = "shard_unavailable"  // 502/503: backend shard unreachable
	codeReplicaLagging   = "replica_lagging"    // 429: delta log outran the slowest replica
	codeReadOnlyReplica  = "read_only_replica"  // 503: direct write to a log-tailing replica
	codeBadUpstream      = "bad_upstream"       // 502: a backend returned garbage
	codeInternal         = "internal"           // 500
)

// maxBodyBytes bounds every request body the daemons read (/v1/ingest on
// the router, POST /v1/tag): both endpoint wrappers put the
// body behind http.MaxBytesReader, so a client cannot make a server buffer
// or decode without limit. A real update batch is a few KB.
const maxBodyBytes = 8 << 20

// bodyError maps a failure to read or decode a request body to its
// response: 413 payload_too_large when the body ran past maxBodyBytes,
// otherwise 400 invalid_argument, the message prefixed with what failed.
func bodyError(what string, err error) (int, errorBody) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, errBody(codePayloadTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
	}
	return http.StatusBadRequest, errBody(codeInvalidArgument, what+": "+err.Error())
}

// unknownEndpoint answers every /v1 path a daemon does not route with 404
// not_found in the envelope, where net/http would answer plain text.
func unknownEndpoint(w http.ResponseWriter, r *http.Request) {
	body, _ := json.Marshal(errBody(codeNotFound, "no endpoint "+r.URL.Path))
	writeBody(w, http.StatusNotFound, append(body, '\n'), false)
}

// Generation response headers. The router keys replica read-gating on
// walGenHeader, so a replica's every response doubles as a progress
// report.
const (
	genHeader    = "X-Giant-Generation"
	walGenHeader = "X-Giant-Wal-Gen"
)

// apiError is the envelope payload of every /v1 error response.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Shard names the shard an error is about (router point routes,
	// per-shard apply failures); omitted when the error has no single
	// shard.
	Shard *int `json:"shard,omitempty"`
	// Generation pins the serving generation the error was computed
	// against, when one is relevant (e.g. replica_lagging).
	Generation uint64 `json:"generation,omitempty"`
}

// errorBody is the unified error envelope: {"error": {...}}.
type errorBody struct {
	Error apiError `json:"error"`
}

// errBody builds an envelope. With no args the format string is the
// message verbatim (never re-interpreted, so user input containing '%'
// survives); with args it is a Sprintf format.
func errBody(code, format string, args ...any) errorBody {
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	return errorBody{Error: apiError{Code: code, Message: msg}}
}

// errBodyShard is errBody with the envelope's shard field set.
func errBodyShard(code string, shard int, format string, args ...any) errorBody {
	e := errBody(code, format, args...)
	e.Error.Shard = &shard
	return e
}

// shardWriteStatus is the per-shard write-status row of every ingest
// response: a 200 carries one row per shard under "shards", and the
// router's 502 for an unconfirmed or diverged ingest reuses the same rows
// (applied=false rows carrying the failure status) so clients parse
// exactly one schema.
type shardWriteStatus struct {
	Shard      int    `json:"shard"`
	Generation uint64 `json:"generation"`
	Applied    bool   `json:"applied"`
	Status     int    `json:"status,omitempty"`
	Error      string `json:"error,omitempty"`
}

// searchParams is one parsed /v1/search request.
type searchParams struct {
	q     string
	limit int
	full  bool // ?scatter=full: the router bypasses term-gram routing; a no-op on giantd
}

// maxSearchResults caps every /v1/search result count, on a backend and
// at the router alike, which is what lets the router's merge truncate to
// the same list (reported as max_search_results in /v1/stats).
const maxSearchResults = 100

// parseSearchParams is THE /v1/search query parser, shared by the
// in-process server, the per-shard backend and the router. The limit
// defaults to 10, rejects non-positive or non-numeric input with
// invalid_limit, and silently clamps to maxSearchResults.
func parseSearchParams(v url.Values) (searchParams, int, errorBody) {
	p := searchParams{q: v.Get("q"), limit: 10}
	if p.q == "" {
		return p, http.StatusBadRequest, errBody(codeInvalidArgument, "need ?q=")
	}
	if ls := v.Get("limit"); ls != "" {
		l, err := strconv.Atoi(ls)
		if err != nil || l <= 0 {
			return p, http.StatusBadRequest, errBody(codeInvalidLimit, "invalid limit: "+ls)
		}
		p.limit = l
	}
	p.limit = min(p.limit, maxSearchResults)
	switch sc := v.Get("scatter"); sc {
	case "":
	case "full":
		p.full = true
	default:
		return p, http.StatusBadRequest, errBody(codeInvalidArgument, `invalid scatter: `+sc+` (want "full")`)
	}
	return p, 0, errorBody{}
}
