package service

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/pstore"
	"repro/internal/report"
	"repro/internal/workload"
)

// TestDecodeEnvelope: the v1 envelope decodes strictly, with kind
// defaulting from the payload.
func TestDecodeEnvelope(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want Request
	}{
		{
			name: "full join envelope",
			in: `{"v":1,"id":"q1","tenant":"dash","priority":"low","deadline_s":5,"kind":"join",` +
				`"join":{"sf":10,"build_sel":0.05,"probe_sel":0.05,"method":"broadcast"}}`,
			want: Request{V: 1, ID: "q1", Tenant: "dash", Priority: "low", Deadline: 5, Kind: "join",
				Join: &workload.JoinRequest{SF: 10, BuildSel: 0.05, ProbeSel: 0.05, Method: "broadcast"}},
		},
		{
			name: "design kind inferred from payload",
			in:   `{"id":"d1","design":{"build_gb":700,"nodes":8}}`,
			want: Request{ID: "d1", Design: &DesignRequest{BuildGB: 700, Nodes: 8}},
		},
		{
			name: "empty object is a default join",
			in:   `{}`,
			want: Request{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Decode([]byte(tc.in), true)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got.V != tc.want.V || got.ID != tc.want.ID || got.Tenant != tc.want.Tenant ||
				got.Priority != tc.want.Priority || got.Deadline != tc.want.Deadline || got.Kind != tc.want.Kind {
				t.Fatalf("envelope = %+v, want %+v", got, tc.want)
			}
			if (got.Join == nil) != (tc.want.Join == nil) || (got.Join != nil && *got.Join != *tc.want.Join) {
				t.Fatalf("join payload = %+v, want %+v", got.Join, tc.want.Join)
			}
			if (got.Design == nil) != (tc.want.Design == nil) || (got.Design != nil && *got.Design != *tc.want.Design) {
				t.Fatalf("design payload = %+v, want %+v", got.Design, tc.want.Design)
			}
		})
	}
	if k := (Request{Design: &DesignRequest{}}).ResolvedKind(); k != "design" {
		t.Fatalf("design-only kind = %q", k)
	}
	if k := (Request{}).ResolvedKind(); k != "join" {
		t.Fatalf("default kind = %q", k)
	}
}

// TestDecodeLegacyCompat: the pre-envelope flat form decodes into the
// equivalent envelope, whichever compat value the caller passes.
func TestDecodeLegacyCompat(t *testing.T) {
	for _, compat := range []bool{true, false} {
		got, err := Decode([]byte(`{"id":"a","sf":5,"build_sel":0.1,"probe_sel":0.02,"method":"broadcast"}`), compat)
		if err != nil {
			t.Fatalf("legacy join (compat %v): %v", compat, err)
		}
		if got.ID != "a" || got.Tenant != "" || got.Join == nil ||
			(*got.Join != workload.JoinRequest{SF: 5, BuildSel: 0.1, ProbeSel: 0.02, Method: "broadcast"}) {
			t.Fatalf("legacy join (compat %v) lifted to %+v", compat, got)
		}
		got, err = Decode([]byte(`{"id":"d","kind":"design","build_gb":700,"probe_gb":2800,"nodes":8,"target":0.6,"build_sel":0.1,"probe_sel":0.02}`), compat)
		if err != nil {
			t.Fatalf("legacy design (compat %v): %v", compat, err)
		}
		if got.Design == nil || (*got.Design != DesignRequest{BuildGB: 700, ProbeGB: 2800, Nodes: 8, Target: 0.6, BuildSel: 0.1, ProbeSel: 0.02}) {
			t.Fatalf("legacy design (compat %v) lifted to %+v", compat, got)
		}
	}
}

// TestDecodeErrorsNameTheField: unknown fields and type mismatches
// produce errors that tell the caller which field to fix.
func TestDecodeErrorsNameTheField(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantSub []string
	}{
		{
			name:    "typo in envelope field",
			in:      `{"tenannt":"x"}`,
			wantSub: []string{`"tenannt"`, "envelope fields"},
		},
		{
			name:    "typo in join payload",
			in:      `{"join":{"probe_sell":0.1}}`,
			wantSub: []string{`"probe_sell"`},
		},
		{
			name:    "type mismatch reported from the legacy decoder",
			in:      `{"sf":"ten"}`,
			wantSub: []string{`"sf"`, "want a number", "got string"},
		},
		{
			name:    "type mismatch in envelope",
			in:      `{"deadline_s":"soon","join":{"sf":5}}`,
			wantSub: []string{`"deadline_s"`, "want a number"},
		},
		{
			name:    "trailing data",
			in:      `{"join":{"sf":5}} {"join":{"sf":6}}`,
			wantSub: []string{"trailing data"},
		},
		{
			name:    "not an object",
			in:      `[1,2]`,
			wantSub: []string{"invalid"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.in), true)
			if err == nil {
				t.Fatalf("Decode(%s) accepted", tc.in)
			}
			for _, sub := range tc.wantSub {
				if !strings.Contains(err.Error(), sub) {
					t.Fatalf("Decode(%s) error %q does not mention %q", tc.in, err, sub)
				}
			}
		})
	}
	// The partial envelope keeps the caller's id for correlation.
	got, err := Decode([]byte(`{"id":"q9","join":{"sf":5},"bogus":1}`), true)
	if err == nil || got.ID != "q9" {
		t.Fatalf("partial decode id = %q (err %v), want q9", got.ID, err)
	}
}

// TestDecodeEnvelopeVersionGate: a v2 envelope decodes but fails
// validation, so a future wire format fails loudly.
func TestDecodeEnvelopeVersionGate(t *testing.T) {
	got, err := Decode([]byte(`{"v":2,"join":{"sf":5}}`), true)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := got.validate(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("v2 validate error = %v", err)
	}
}

// TestLegacyResponsesAreByteIdentical is the compat golden: a legacy
// flat request decoded through the compat path must produce the exact
// bytes the pre-envelope service emitted — no tenant field, no new
// fields leaking into old clients' streams. The clock is pinned so the
// variable queue/wall timings (omitempty floats, absent at zero) drop
// out of both sides.
func TestLegacyResponsesAreByteIdentical(t *testing.T) {
	s, err := New(Config{
		Admission: Admission{QueueDepth: 4},
		Execution: Execution{Workers: 1, Engine: engineCfg()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fixed := time.Unix(1700000000, 0)
	s.now = func() time.Time { return fixed }

	req, err := Decode([]byte(`{"id":"legacy-1","sf":5,"build_sel":0.05,"probe_sel":0.05}`), true)
	if err != nil {
		t.Fatal(err)
	}
	resp := s.Do(req)
	if !resp.OK() {
		t.Fatalf("legacy request failed: %+v", resp)
	}
	var got bytes.Buffer
	if err := report.WriteServiceResponse(&got, resp); err != nil {
		t.Fatal(err)
	}

	// The pre-envelope wire format, reconstructed from a serial RunJoin
	// of the same spec: id, kind, status, cache tag, seconds, joules — and
	// nothing else.
	spec, err := (workload.JoinRequest{SF: 5, BuildSel: 0.05, ProbeSel: 0.05}).Spec()
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Homogeneous(4, hw.ClusterV()))
	if err != nil {
		t.Fatal(err)
	}
	ref, joules, err := pstore.RunJoin(c, engineCfg(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := report.WriteServiceResponse(&want, report.ServiceResponse{
		ID: "legacy-1", Kind: "join", Status: "ok", Cache: "miss",
		Seconds: ref.Seconds, Joules: joules,
	}); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("legacy response drifted:\n got %s want %s", got.String(), want.String())
	}
	if strings.Contains(got.String(), "tenant") {
		t.Fatalf("legacy response leaks the tenant field: %s", got.String())
	}
}
