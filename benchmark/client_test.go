package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// A read refused with 502 is sent again and counted; a write never is; a
// read refused every time fails.
func TestReadsAreRetriedAfter502AndWritesAreNot(t *testing.T) {
	var calls atomic.Int64
	refuse := int64(1) // how many first calls answer 502
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= refuse {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		w.Write([]byte("ok\n"))
	}))
	defer srv.Close()
	client := newClient(1)

	var tl tally
	read := op{kind: kindRewrite, method: "GET", uri: "/v1/query/rewrite?q=x"}
	r, err := sendRetrying(client, srv.URL, &read, nil, &tl)
	if err != nil || r.status != http.StatusOK || tl.retried != 1 || calls.Load() != 2 {
		t.Fatalf("read: status %d err %v retried %d calls %d", r.status, err, tl.retried, calls.Load())
	}

	calls.Store(0)
	tl = tally{}
	write := op{kind: kindIngest, method: "POST", uri: "/v1/ingest", body: []byte("{}")}
	r, err = sendRetrying(client, srv.URL, &write, nil, &tl)
	if err != nil || r.status != http.StatusBadGateway || tl.retried != 0 || calls.Load() != 1 {
		t.Fatalf("write: status %d err %v retried %d calls %d", r.status, err, tl.retried, calls.Load())
	}

	calls.Store(0)
	refuse = 100
	lat := make([]float64, 1)
	res := runRound(client, srv.URL, []op{read}, lat, 1)
	if res.tally.non2xx != 1 || res.tally.retried != readRetries || res.statuses[http.StatusBadGateway] != 1 || calls.Load() != 1+readRetries {
		t.Fatalf("stubborn 502: %+v statuses %v calls %d", res.tally, res.statuses, calls.Load())
	}
}
