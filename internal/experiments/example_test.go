package experiments_test

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/experiments"
	"repro/internal/pstore"
	"repro/internal/report"
)

// Run Figure 5 at SF 20 through a memoizing join cache, read its typed
// table cells, and render the same Result as text and Markdown.
func ExampleByID() {
	e, err := experiments.ByID("fig5")
	if err != nil {
		log.Fatal(err)
	}
	cache := pstore.NewCache(nil)
	res, err := e.Run(experiments.Options{SF: 20, Joins: cache})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("join cache: %d requests, %d engine runs\n", cache.Stats().Requests(), cache.Stats().Misses)

	tbl := res.Tables[0]
	for _, row := range tbl.Rows {
		fmt.Printf("%-28v energy ratio %.3f\n", row[0], row[3])
	}
	fmt.Print(report.TableText(tbl))
	md, _, _ := strings.Cut(report.Markdown(res), "\n")
	fmt.Println(md)
	// Output:
	// join cache: 6 requests, 6 engine runs
	// shuffle both tables          energy ratio 0.868
	// broadcast small table        energy ratio 0.741
	// prepartitioned (no network)  energy ratio 1.000
	// plan                           8N time(s)   4N time(s)   energy ratio   perf ratio
	// shuffle both tables                   0.2          0.3          0.868        0.592
	// broadcast small table                 0.1          0.2          0.741        0.689
	// prepartitioned (no network)           0.1          0.2          1.000        0.500
	// ## fig5 — Join plan summary: half vs full cluster
}
