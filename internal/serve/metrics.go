package serve

import (
	"sync/atomic"
	"time"
)

// endpointMetrics accumulates per-endpoint counters with atomics only, so
// the request path never serializes on a metrics lock.
type endpointMetrics struct {
	requests  atomic.Uint64
	errors4xx atomic.Uint64
	errors5xx atomic.Uint64
	cacheHits atomic.Uint64
	totalUs   atomic.Uint64 // summed handler latency, microseconds
	maxUs     atomic.Uint64
}

// observe records one finished request.
func (m *endpointMetrics) observe(status int, elapsed time.Duration, cacheHit bool) {
	m.requests.Add(1)
	switch {
	case status >= 500:
		m.errors5xx.Add(1)
	case status >= 400:
		m.errors4xx.Add(1)
	}
	if cacheHit {
		m.cacheHits.Add(1)
	}
	us := uint64(elapsed.Microseconds())
	m.totalUs.Add(us)
	for {
		cur := m.maxUs.Load()
		if us <= cur || m.maxUs.CompareAndSwap(cur, us) {
			break
		}
	}
}

// EndpointStats is the exported view of one endpoint's counters.
type EndpointStats struct {
	Requests     uint64  `json:"requests"`
	Errors4xx    uint64  `json:"errors_4xx"`
	Errors5xx    uint64  `json:"errors_5xx"`
	CacheHits    uint64  `json:"cache_hits"`
	AvgLatencyUs float64 `json:"avg_latency_us"`
	MaxLatencyUs uint64  `json:"max_latency_us"`
	QPS          float64 `json:"qps"`
}

// metricsRegistry maps endpoint name -> counters. The endpoint set is fixed
// at construction, so concurrent readers need no map lock.
type metricsRegistry struct {
	start     time.Time
	endpoints map[string]*endpointMetrics
}

func newMetricsRegistry(names []string) *metricsRegistry {
	r := &metricsRegistry{start: time.Now(), endpoints: make(map[string]*endpointMetrics, len(names))}
	for _, n := range names {
		r.endpoints[n] = &endpointMetrics{}
	}
	return r
}

// Metrics is the /v1/metrics payload.
type Metrics struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Generation    uint64                   `json:"generation"`
	CacheEntries  int                      `json:"cache_entries"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
}

// snapshot renders the registry. QPS is requests over process uptime — a
// coarse, monotonic figure that needs no sliding window on the hot path.
func (r *metricsRegistry) snapshot() map[string]EndpointStats {
	uptime := time.Since(r.start).Seconds()
	if uptime <= 0 {
		uptime = 1e-9
	}
	out := make(map[string]EndpointStats, len(r.endpoints))
	for n, m := range r.endpoints {
		st := EndpointStats{
			Requests:     m.requests.Load(),
			Errors4xx:    m.errors4xx.Load(),
			Errors5xx:    m.errors5xx.Load(),
			CacheHits:    m.cacheHits.Load(),
			MaxLatencyUs: m.maxUs.Load(),
		}
		if st.Requests > 0 {
			st.AvgLatencyUs = float64(m.totalUs.Load()) / float64(st.Requests)
			st.QPS = float64(st.Requests) / uptime
		}
		out[n] = st
	}
	return out
}
