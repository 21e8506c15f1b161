package report

import (
	"encoding/json"
	"fmt"
	"io"
)

// ServiceResponse is the typed per-request report of the workload-stream
// service mode (internal/service, cmd/serve): one JSON line per streamed
// request, correlated by ID.
type ServiceResponse struct {
	ID   string `json:"id"`
	Kind string `json:"kind"` // "join" | "design"
	// Tenant echoes the request's tenant exactly as given; legacy flat
	// requests carry no tenant, so their responses omit the field and
	// stay byte-identical to the pre-envelope wire format.
	Tenant string `json:"tenant,omitempty"`
	// Status is "ok", "shed" (admission control refused the request, or
	// a queued low-priority request was displaced by high-priority
	// work), "deadline" (the request was still queued at its deadline
	// and was answered without launching) or "error" (the request was
	// invalid or the run failed).
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Invalid marks an "error" response caused by a bad request rather
	// than a failed run. It is not serialized; cmd/serve uses it to map
	// HTTP errors to 400 (caller's fault) vs 500 (run failed).
	Invalid bool `json:"-"`
	// Cache is "hit" for a join answered from the service's memory and
	// "miss" for one its engine ran; empty for a design, and for an
	// error, shed or deadline response.
	Cache string `json:"cache,omitempty"`
	// Seconds/Joules are the simulated response time and cluster energy
	// of a join run, or the model-predicted values of a design.
	Seconds float64 `json:"seconds,omitempty"`
	Joules  float64 `json:"joules,omitempty"`
	// Design is the recommended design label ("2B,6W") of a design request.
	Design string `json:"design,omitempty"`
	// QueueSeconds is arrival-to-launch wall time (admission queueing
	// plus policy release delay); WallSeconds is arrival-to-completion.
	QueueSeconds float64 `json:"queue_seconds,omitempty"`
	WallSeconds  float64 `json:"wall_seconds,omitempty"`
}

// OK reports whether the request was answered.
func (r ServiceResponse) OK() bool { return r.Status == "ok" }

// TenantMetrics is one tenant's slice of the aggregate service report:
// exact admission counters plus latency percentiles from a fixed-bucket
// histogram, so a flooded neighbor's shed storm and a quiet tenant's
// queue-time tail are both visible per tenant, not averaged away.
type TenantMetrics struct {
	Received int64 `json:"received"`
	OK       int64 `json:"ok"`
	Shed     int64 `json:"shed"`
	Errors   int64 `json:"errors"`
	Deadline int64 `json:"deadline"`

	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`

	// MeanResponse/MaxResponse and the percentiles are wall-clock
	// arrival-to-completion times over this tenant's answered requests.
	MeanResponse float64 `json:"mean_response_seconds"`
	MaxResponse  float64 `json:"max_response_seconds"`
	P50          float64 `json:"p50_seconds"`
	P95          float64 `json:"p95_seconds"`
	P99          float64 `json:"p99_seconds"`
	// QueueP50/QueueP99 are arrival-to-launch percentiles over every
	// request of this tenant that reached a worker — the fairness
	// signal: a starved tenant shows up here before it sheds.
	QueueP50 float64 `json:"queue_p50_seconds"`
	QueueP99 float64 `json:"queue_p99_seconds"`
}

// ServiceMetrics is the aggregate service report, emitted on shutdown or
// on demand (a {"kind":"metrics"} request, or GET /metrics in cmd/serve).
type ServiceMetrics struct {
	Received int64 `json:"received"`
	OK       int64 `json:"ok"`
	Shed     int64 `json:"shed"`
	Errors   int64 `json:"errors"`
	// Deadline counts requests that expired in the queue (answered with
	// status "deadline", never launched).
	Deadline int64 `json:"deadline"`
	// CacheHits/CacheMisses count join requests answered from the shared
	// runner's memory vs fresh engine simulations.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// WallSeconds is the service uptime; Throughput is answered requests
	// per wall second.
	WallSeconds float64 `json:"wall_seconds"`
	Throughput  float64 `json:"throughput"`
	// MeanResponse/MaxResponse and the percentiles are wall-clock
	// arrival-to-completion times over answered requests, the
	// percentiles from a fixed-bucket histogram (≤ ~21% bucket error).
	MeanResponse float64 `json:"mean_response_seconds"`
	MaxResponse  float64 `json:"max_response_seconds"`
	P50          float64 `json:"p50_seconds"`
	P95          float64 `json:"p95_seconds"`
	P99          float64 `json:"p99_seconds"`
	// TotalJoules and JoulesPerQuery aggregate the simulated cluster
	// energy of answered join requests (cache hits count the memoized
	// energy: the service answered without re-spending it).
	TotalJoules    float64 `json:"total_joules"`
	JoulesPerQuery float64 `json:"joules_per_query"`
	// Tenants is the per-tenant breakdown, keyed by normalized tenant
	// name (legacy/blank-tenant requests land under "default"). JSON
	// object keys marshal sorted, so the report is deterministic.
	Tenants map[string]TenantMetrics `json:"tenants,omitempty"`
}

// WriteServiceResponse emits one response as a single JSON line.
func WriteServiceResponse(w io.Writer, r ServiceResponse) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// WriteServiceMetrics emits the aggregate as indented JSON.
func WriteServiceMetrics(w io.Writer, m ServiceMetrics) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
