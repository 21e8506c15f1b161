package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/workload"
)

// Request is the versioned service envelope: transport concerns (who is
// asking, how urgently, by when) live on the envelope; what to run lives
// in the Join or Design payload. The zero value is a valid join request
// at the service defaults.
//
//	{"v":1, "id":"q1", "tenant":"dashboards", "priority":"low",
//	 "deadline_s":5, "kind":"join",
//	 "join":{"sf":10, "build_sel":0.05, "probe_sel":0.05, "method":"dual-shuffle"}}
//
// The deprecated pre-envelope flat form (join/design parameters at the
// top level) is still decoded by Decode; see Decode.
type Request struct {
	// V is the envelope version. 0 (unset) and 1 both mean v1; anything
	// else is rejected, so a future v2 envelope fails loudly instead of
	// being half-read.
	V int `json:"v,omitempty"`
	// ID correlates the response; echoed verbatim.
	ID string `json:"id,omitempty"`
	// Tenant is the requesting client class. Empty lands in the
	// "default" tenant. Admission quotas, fair queueing and the metrics
	// breakdown are all per tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority is "high" (default) or "low". All queued high-priority
	// work is served before any low-priority work, and under pressure
	// low-priority requests are shed first — a full tenant queue
	// displaces its newest queued low request to admit a high one.
	Priority string `json:"priority,omitempty"`
	// Deadline is this request's deadline in wall seconds from arrival,
	// overriding the service-wide Admission.Timeout. A request still
	// queued at its deadline is answered with status "deadline" without
	// launching. Zero inherits the service default.
	Deadline float64 `json:"deadline_s,omitempty"`
	// Kind is "join" or "design". Empty defaults to "design" when only
	// the Design payload is set, else "join".
	Kind string `json:"kind,omitempty"`
	// Join holds join parameters (nil means service defaults: SF 10,
	// 5% selectivities, dual-shuffle).
	Join *workload.JoinRequest `json:"join,omitempty"`
	// Design holds cluster-design parameters, answered by the
	// analytical model without an engine run.
	Design *DesignRequest `json:"design,omitempty"`
}

// DesignRequest asks for a cluster design for a hash-join workload.
// Zero fields select the documented defaults.
type DesignRequest struct {
	BuildGB  float64 `json:"build_gb,omitempty"`  // build table size (default 700)
	ProbeGB  float64 `json:"probe_gb,omitempty"`  // probe table size (default 2800)
	Nodes    int     `json:"nodes,omitempty"`     // design size bound (default 8)
	Target   float64 `json:"target,omitempty"`    // min normalized perf (default 0.6)
	BuildSel float64 `json:"build_sel,omitempty"` // build selectivity (default 0.1)
	ProbeSel float64 `json:"probe_sel,omitempty"` // probe selectivity (default 0.1)
}

// ResolvedKind is the request kind after defaulting: an explicit Kind
// wins; otherwise a request carrying only a Design payload is a design
// request and everything else is a join.
func (r Request) ResolvedKind() string {
	if r.Kind != "" {
		return r.Kind
	}
	if r.Design != nil && r.Join == nil {
		return "design"
	}
	return "join"
}

// join returns the join parameters (service defaults when nil).
func (r Request) join() workload.JoinRequest {
	if r.Join == nil {
		return workload.JoinRequest{}
	}
	return *r.Join
}

// design returns the design parameters (all-defaults when nil).
func (r Request) design() DesignRequest {
	if r.Design == nil {
		return DesignRequest{}
	}
	return *r.Design
}

// validate checks the envelope-level fields. Payload validation happens
// when the payload is used (workload.JoinRequest.Spec, Server.design).
func (r Request) validate() error {
	if r.V != 0 && r.V != 1 {
		return fmt.Errorf("service: unsupported envelope version %d (this server speaks v1)", r.V)
	}
	switch r.Priority {
	case "", "high", "low":
	default:
		return fmt.Errorf("service: unknown priority %q (want high or low)", r.Priority)
	}
	if r.Deadline < 0 || math.IsNaN(r.Deadline) || math.IsInf(r.Deadline, 0) {
		return fmt.Errorf("service: deadline_s must be a positive, finite number of seconds (0 = service default), got %v", r.Deadline)
	}
	return nil
}

// legacyRequest is the pre-envelope flat wire form: join parameters and
// design parameters all at the top level. It is kept decodable so
// existing clients and recorded traces keep working; new clients should
// send the envelope.
type legacyRequest struct {
	ID                   string `json:"id,omitempty"`
	Kind                 string `json:"kind,omitempty"`
	workload.JoinRequest        // sf, build_sel, probe_sel, method

	BuildGB float64 `json:"build_gb,omitempty"`
	ProbeGB float64 `json:"probe_gb,omitempty"`
	Nodes   int     `json:"nodes,omitempty"`
	Target  float64 `json:"target,omitempty"`
}

// legacyFields are the flat-form top-level keys that do not exist on the
// envelope; an envelope decode that trips over one of these is really a
// legacy request, so error reporting prefers the legacy decoder's
// verdict for them.
var legacyFields = map[string]bool{
	"sf": true, "build_sel": true, "probe_sel": true, "method": true,
	"build_gb": true, "probe_gb": true, "nodes": true, "target": true,
}

// envelope lifts a flat request into the envelope. Legacy requests have
// no tenant or priority, so they land in the default tenant at the
// default (high) priority — and their responses omit the tenant field,
// staying byte-identical to the pre-envelope wire format.
func (l legacyRequest) envelope() Request {
	req := Request{ID: l.ID, Kind: l.Kind}
	switch l.Kind {
	case "design":
		req.Design = &DesignRequest{
			BuildGB: l.BuildGB, ProbeGB: l.ProbeGB,
			Nodes: l.Nodes, Target: l.Target,
			BuildSel: l.BuildSel, ProbeSel: l.ProbeSel,
		}
	default:
		// Joins (and unknown kinds, which the server answers with a
		// named error) carry the flat join parameters; the flat form's
		// design fields are ignored for joins, as they always were.
		jr := l.JoinRequest
		req.Join = &jr
	}
	return req
}

// Decode parses one request object strictly: unknown fields are errors
// that name the offending field, so a typo like "probe_sell" surfaces as
// a named "error" response instead of silently running defaults. The
// deprecated legacy flat form (pre-envelope: sf/build_sel/... at the top
// level) is accepted too, decoded just as strictly.
//
// compat is ignored: the flat form is always accepted. The parameter is
// kept for existing callers, the benchmark module among them, which pass
// both values.
//
// The partially decoded request is returned even on error so the
// response can carry the caller's id.
func Decode(b []byte, compat bool) (Request, error) {
	var env Request
	envErr := decodeStrict(b, &env)
	if envErr == nil {
		return env, nil
	}
	var leg legacyRequest
	legErr := decodeStrict(b, &leg)
	if legErr == nil {
		return leg.envelope(), nil
	}
	// Both decoders failed. If the envelope tripped over a known legacy
	// field, the caller meant the flat form — report what the legacy
	// decoder found instead.
	if f, ok := unknownField(envErr); ok && legacyFields[f] {
		return env, named(legErr)
	}
	return env, named(envErr)
}

// decodeStrict decodes one JSON object with unknown fields disallowed
// and trailing data rejected.
func decodeStrict(b []byte, dst any) error {
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the request object")
	}
	return nil
}

// unknownField extracts the field name from an encoding/json
// DisallowUnknownFields error ("json: unknown field \"x\"").
func unknownField(err error) (string, bool) {
	const prefix = `json: unknown field "`
	msg := err.Error()
	if !strings.HasPrefix(msg, prefix) || !strings.HasSuffix(msg, `"`) {
		return "", false
	}
	return msg[len(prefix) : len(msg)-1], true
}

// named rewrites a decode error to lead with the offending field.
func named(err error) error {
	if f, ok := unknownField(err); ok {
		return fmt.Errorf("service: unknown request field %q (envelope fields: v, id, tenant, priority, deadline_s, kind, join, design)", f)
	}
	var ute *json.UnmarshalTypeError
	if errors.As(err, &ute) && ute.Field != "" {
		// Field is a dotted path ("JoinRequest.sf" through the legacy
		// embedding); the wire name is the last segment.
		field := ute.Field
		if i := strings.LastIndexByte(field, '.'); i >= 0 {
			field = field[i+1:]
		}
		return fmt.Errorf("service: invalid value for field %q: want %s, got %s",
			field, wantType(ute.Type.Kind().String()), ute.Value)
	}
	return fmt.Errorf("service: invalid request: %v", err)
}

// wantType translates a Go kind into wire-format words.
func wantType(kind string) string {
	switch kind {
	case "float64", "float32", "int", "int64", "uint", "uint64":
		return "a number"
	case "string":
		return "a string"
	case "bool":
		return "a boolean"
	case "ptr", "struct", "map":
		return "an object"
	default:
		return kind
	}
}
