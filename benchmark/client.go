package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"
)

// newClient returns a keep-alive client with one idle connection per
// closed-loop worker, so a round never pays a TCP handshake.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// reply is what the harness keeps of one response.
type reply struct {
	status   int
	cacheHit bool   // X-Cache: hit
	body     []byte // only when the caller asked for it
}

// do sends one op to base and drains the response fully, so the
// connection is reusable and the server's whole write is inside the
// measured interval. keep is the buffer to copy the body into, or nil to
// discard it.
func do(client *http.Client, base string, o *op, keep *bytes.Buffer) (reply, error) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, base+o.uri, body)
	if err != nil {
		return reply{}, err
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode, cacheHit: resp.Header.Get("X-Cache") == "hit"}
	if keep != nil {
		keep.Reset()
		if _, err := keep.ReadFrom(resp.Body); err != nil {
			return reply{}, err
		}
		r.body = keep.Bytes()
	} else if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return reply{}, err
	}
	return r, nil
}

// readRetries is how often a read is sent again after a 502.
const readRetries = 2

// sendRetrying is do, plus what a client of giantrouter has to do: when a
// read's scatter straddles a republish — one replica of a shard has applied
// a batch its peer has not — the router finds its partials' generations
// disagreeing, retries once itself, and if they disagree again answers 502
// bad_upstream "backend generations churned during ... merge; retry". That
// happens to about one read in ten thousand beside 2 x 2 replicas applying
// writes, and it is a request to retry, not a wrong answer: the read is
// sent again, its latency covers every attempt, and the retry is counted.
// Writes are never sent twice, and a read still refused after readRetries
// fails.
func sendRetrying(client *http.Client, base string, o *op, keep *bytes.Buffer, t *tally) (reply, error) {
	r, err := do(client, base, o, keep)
	for n := 0; n < readRetries && err == nil && r.status == http.StatusBadGateway && o.kind != kindIngest; n++ {
		t.retried++
		r, err = do(client, base, o, keep)
	}
	return r, err
}

// serveInProcess runs one op through an http.Handler without a socket —
// the oracle's reference answer, and the trace's "handler" span.
func serveInProcess(h http.Handler, o *op) reply {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req := httptest.NewRequest(o.method, o.uri, body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return reply{status: rec.Code, cacheHit: rec.Header().Get("X-Cache") == "hit", body: rec.Body.Bytes()}
}

// tally counts a workload's attempts and the three ways one can fail
// (every endpoint the workloads use answers 200 or has failed).
type tally struct {
	attempted, transport, non2xx, mismatch int
	hits, reads                            int // X-Cache accounting over reads
	retried                                int // reads sent again after a 502, see sendRetrying
}

func (t *tally) failed() int { return t.transport + t.non2xx + t.mismatch }

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.transport += o.transport
	t.non2xx += o.non2xx
	t.mismatch += o.mismatch
	t.hits += o.hits
	t.reads += o.reads
	t.retried += o.retried
}

func (t *tally) hitRatio() float64 {
	if t.reads == 0 {
		return 0
	}
	return float64(t.hits) / float64(t.reads)
}

// oracleEvery is how often a read is kept and compared byte for byte with
// the in-process reference server's answer.
const oracleEvery = 50

// kept is one response held back for the oracle.
type kept struct {
	op   *op
	body []byte
}

// roundResult is what sending one op list produced.
type roundResult struct {
	wall     time.Duration
	tally    tally
	statuses map[int]int // how many responses had each status other than 200
	sample   []kept      // every oracleEvery-th response, for checking once the clock has stopped
}

// runRound sends ops from one shared queue over `workers` closed-loop
// connections — each worker sends its next op when its previous one has
// been answered — and records each op's latency in ms at its index in lat,
// which must have len(ops).
func runRound(client *http.Client, base string, ops []op, lat []float64, workers int) roundResult {
	res := roundResult{statuses: map[int]int{}}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			var sample []kept
			var non200 []int
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					break
				}
				o := &ops[i]
				var keep *bytes.Buffer
				if i%oracleEvery == 0 {
					keep = &buf
				}
				t0 := time.Now()
				r, err := sendRetrying(client, base, o, keep, &t)
				lat[i] = msSince(t0)
				t.attempted++
				switch {
				case err != nil:
					t.transport++
					continue
				case r.status != http.StatusOK:
					t.non2xx++
					non200 = append(non200, r.status)
					continue
				}
				t.reads++
				if r.cacheHit {
					t.hits++
				}
				if keep != nil {
					sample = append(sample, kept{op: o, body: append([]byte(nil), r.body...)})
				}
			}
			mu.Lock()
			res.tally.add(t)
			res.sample = append(res.sample, sample...)
			for _, s := range non200 {
				res.statuses[s]++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// reportStatuses turns unexpected response statuses into problems.
func (r *report) reportStatuses(where string, statuses map[int]int) {
	for s, n := range statuses {
		r.problemf("%s: %d responses with status %d", where, n, s)
	}
}

// checkOracle compares kept responses with the reference handler's and
// returns the number that differ, describing the first.
func checkOracle(ref http.Handler, sample []kept) (mismatches int, first string) {
	for _, k := range sample {
		want := serveInProcess(ref, k.op)
		if want.status != http.StatusOK || !bytes.Equal(want.body, k.body) {
			if mismatches == 0 {
				first = fmt.Sprintf("%s %s: daemon answered %q, reference (%d) %q", k.op.method, k.op.uri, clip(k.body), want.status, clip(want.body))
			}
			mismatches++
		}
	}
	return mismatches, first
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}
