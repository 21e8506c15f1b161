package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/pstore"
)

// engineBacked lists the experiments that run multi-second P-store
// simulations; they are skipped under -short.
var engineBacked = map[string]bool{
	"fig3": true, "fig4": true, "fig5": true,
	"fig7a": true, "fig7b": true, "fig8": true, "fig9": true,
	"htap1": true, "htap2": true, "fault1": true, "fault2": true,
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// diffAt pinpoints the first byte where got and want diverge, with a
// little context, so a golden mismatch is diagnosable from the log.
func diffAt(t *testing.T, id, kind, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	at := n
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			at = i
			break
		}
	}
	lo := at - 60
	if lo < 0 {
		lo = 0
	}
	hiG, hiW := at+60, at+60
	if hiG > len(got) {
		hiG = len(got)
	}
	if hiW > len(want) {
		hiW = len(want)
	}
	t.Errorf("%s %s output diverges from pre-refactor golden at byte %d:\n got: %q\nwant: %q",
		id, kind, at, got[lo:hiG], want[lo:hiW])
}

// TestGoldenOutputs is the tentpole's byte-identity guarantee plus the
// -json contract, on one run per registry entry: report.Text and
// report.Markdown of the typed Result reproduce the pre-refactor
// Report.String()/Report.Markdown() renderings captured in testdata/
// exactly, and the same Result marshals to valid JSON whose tables are
// rows of typed cells — no preformatted multi-line text blocks.
func TestGoldenOutputs(t *testing.T) {
	for _, e := range experiments.Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && engineBacked[e.ID] {
				t.Skip("engine experiment")
			}
			res, err := e.Run(experiments.Options{})
			if err != nil {
				t.Fatal(err)
			}
			diffAt(t, e.ID, "text", Text(res), golden(t, e.ID+".txt"))
			diffAt(t, e.ID, "markdown", Markdown(res), golden(t, e.ID+".md"))
			checkJSONStructured(t, res)
		})
	}
}

// TestGoldenOutputsCached proves cached and uncached runs are
// indistinguishable: the engine-backed figures rendered from a shared
// memoizing cache (which replays joins across fig3/fig4/fig5) still match
// the pre-refactor goldens byte-for-byte, and the cache did share work.
func TestGoldenOutputsCached(t *testing.T) {
	if testing.Short() {
		t.Skip("engine experiments")
	}
	cache := pstore.NewCache(nil)
	opts := experiments.Options{Joins: cache}
	for _, e := range experiments.Registry() {
		id := e.ID
		if id != "fig3" && id != "fig4" && id != "fig5" {
			continue
		}
		res, err := e.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		diffAt(t, id, "cached text", Text(res), golden(t, id+".txt"))
	}
	s := cache.Stats()
	if s.Hits == 0 {
		t.Errorf("cache shared no work across fig3/fig4/fig5: %+v", s)
	}
	if s.Misses >= s.Requests() {
		t.Errorf("engine invocations (%d) not fewer than requests (%d)", s.Misses, s.Requests())
	}
}

func checkJSONStructured(t *testing.T, res experiments.Result) {
	t.Helper()
	b, err := json.Marshal(toJSONResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("empty JSON")
	}
	for _, tbl := range res.Tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("table %s has no rows", tbl.Name)
		}
		for i, row := range tbl.Rows {
			for j, cell := range row {
				if s, ok := cell.(string); ok {
					for _, r := range s {
						if r == '\n' {
							t.Errorf("table %s cell [%d][%d] contains a newline: %q", tbl.Name, i, j, s)
						}
					}
				}
			}
		}
	}
}
