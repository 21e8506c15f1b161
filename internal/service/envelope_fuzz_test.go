package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecode holds Decode to its contract on arbitrary bytes, envelope
// and legacy flat form alike, with either compat value: it never
// panics; the compat argument changes nothing; a request it accepts
// re-encodes and re-decodes to itself (nothing is read that the
// envelope cannot carry); one it rejects gets an error that names the
// offending field or gives the reason. Seeded with the requests of the
// committed two-tenant trace plus one input per decode path.
func FuzzDecode(f *testing.F) {
	trace, err := os.Open("../replay/testdata/trace_two_tenant.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	defer trace.Close()
	lines := bufio.NewScanner(trace)
	for n := 0; n < 32 && lines.Scan(); n++ {
		var ev struct {
			Request json.RawMessage `json:"request"`
		}
		if err := json.Unmarshal(lines.Bytes(), &ev); err != nil || len(ev.Request) == 0 {
			f.Fatalf("trace line %d: no request (%v)", n+1, err)
		}
		f.Add([]byte(ev.Request), n%2 == 0)
	}
	for _, seed := range []string{
		`{}`,
		`{"id":"d1","design":{"build_gb":700,"nodes":8}}`,
		`{"v":1,"id":"q","tenant":"t","priority":"low","deadline_s":-1,"kind":"join","join":{}}`,
		`{"id":"flat","sf":10,"build_sel":0.05,"probe_sel":0.05,"method":"broadcast"}`,
		`{"id":"flat","kind":"design","build_gb":700,"nodes":8,"target":0.6,"build_sel":0.1}`,
		`{"id":"typo","probe_sell":0.05}`,
		`{"join":{"sf":"ten"}}`,
		`{"sf":"ten"}`,
		`{"id":"x"} {"id":"y"}`,
		`{"deadline_s":1e999}`,
		`[1,2,3]`,
		"{\"id\":\"\xff\"}",
		``,
	} {
		f.Add([]byte(seed), true)
		f.Add([]byte(seed), false)
	}
	f.Fuzz(func(t *testing.T, b []byte, compat bool) {
		req, err := Decode(b, compat)
		other, otherErr := Decode(b, !compat)
		if !reflect.DeepEqual(req, other) || fmt.Sprint(err) != fmt.Sprint(otherErr) {
			t.Fatalf("compat %v and %v disagree:\n %+v, %v\n %+v, %v", compat, !compat, req, err, other, otherErr)
		}
		if err != nil {
			msg := err.Error()
			for _, lead := range []string{
				"service: unknown request field \"",
				"service: invalid value for field \"",
				"service: invalid request: ",
			} {
				if strings.HasPrefix(msg, lead) && len(msg) > len(lead) {
					return
				}
			}
			t.Fatalf("rejection names neither a field nor a reason: %q", msg)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v (%+v)", err, req)
		}
		again, err := Decode(enc, compat)
		if err != nil {
			t.Fatalf("re-encoded request %s rejected: %v", enc, err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip changed the request:\n first %+v\nsecond %+v\n  wire %s", req, again, enc)
		}
	})
}
