package replay

import (
	"bufio"
	"bytes"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// lineErr is the prefix every rejection of a trace with events carries.
var lineErr = regexp.MustCompile(`^replay: line [1-9][0-9]*: `)

// FuzzLoad holds Load to its contract on arbitrary bytes: it never
// panics; a trace it accepts survives WriteTrace and Load unchanged; one
// it rejects gets an error naming the offending line, except a trace
// with no events at all (only blank and comment lines), which has none to
// name. Seeded with the head of the committed two-tenant trace plus one
// input per rejection branch.
func FuzzLoad(f *testing.F) {
	trace, err := os.Open("testdata/trace_two_tenant.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	defer trace.Close()
	// Two lines a seed: enough for the ordering check, small enough that
	// minimising a new input does not stall a ten-second fuzz run.
	var pair []byte
	lines := bufio.NewScanner(trace)
	for n := 0; n < 32 && lines.Scan(); n++ {
		pair = append(append(pair, lines.Bytes()...), '\n')
		if n%2 == 1 {
			f.Add(pair)
			pair = nil
		}
	}
	for _, seed := range []string{
		"# comment\n\n{\"offset_s\":0,\"request\":{}}\n",
		`{"offset_s":0,"request":`,                                         // bad JSON
		`{"offset_s":0,"tennant":"x","request":{}}`,                        // unknown field
		`{"offset_s":0,"request":{}} {"offset_s":1}`,                       // trailing data
		`{"offset_s":-1,"request":{}}`,                                     // negative offset
		`{"offset_s":NaN,"request":{}}`,                                    // NaN is not JSON
		`{"offset_s":1e999,"request":{}}`,                                  // overflows float64
		"{\"offset_s\":2,\"request\":{}}\n{\"offset_s\":1,\"request\":{}}", // backwards
		"# nothing\n",
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		events, err := Load(bytes.NewReader(b))
		if err != nil {
			if lineErr.MatchString(err.Error()) {
				return
			}
			if err.Error() == "replay: trace has no events" && noEvents(b) {
				return
			}
			t.Fatalf("rejection names no line: %q", err)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, events); err != nil {
			t.Fatalf("accepted trace does not write: %v", err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("written trace rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(events, again) {
			t.Fatalf("round trip changed the trace:\n first %+v\nsecond %+v", events, again)
		}
	})
}

// noEvents reports whether every line of b is blank or a #-comment.
func noEvents(b []byte) bool {
	for _, line := range strings.Split(string(b), "\n") {
		if t := strings.TrimSpace(line); t != "" && !strings.HasPrefix(t, "#") {
			return false
		}
	}
	return true
}
