package report

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/runner"
)

// WriteText renders a run as the terminal format: each successful
// result's full text report in order, separated by blank lines.
func WriteText(w io.Writer, results []runner.Result) error {
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		if _, err := fmt.Fprintln(w, Text(r.Result)); err != nil {
			return err
		}
	}
	return nil
}

// WriteMarkdown renders a run as an EXPERIMENTS.md document: a header, an
// index table of every experiment with its status, then each successful
// result as a Markdown section. The output contains no wall times or
// other host-dependent data, so regenerating it on an unchanged tree is
// diff-clean.
func WriteMarkdown(w io.Writer, results []runner.Result) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pf("# EXPERIMENTS — paper vs measured\n\n")
	pf("Regenerated tables and figures of Lang et al., *Towards\nEnergy-Efficient Database Cluster Design* (PVLDB 5(11), 2012).\n\n")
	pf("Regenerate with:\n\n```\ngo run ./cmd/repro -exp all -md -o EXPERIMENTS.md\n```\n\n")
	pf("| id | title | status |\n|---|---|---|\n")
	for _, r := range results {
		pf("| %s | %s | %s |\n", r.Experiment.ID, r.Experiment.Title, status(r.Err))
	}
	pf("\n")
	for _, r := range results {
		if r.Err != nil {
			pf("## %s — %s\n\nFAILED: %v\n\n", r.Experiment.ID, r.Experiment.Title, r.Err)
			continue
		}
		pf("%s", Markdown(r.Result))
	}
	return err
}

// WriteJSON renders a run as one indented JSON array with an entry per
// experiment: id, title, status, and the structured series/tables/pairs
// of successful results. It is the machine-readable companion of
// WriteMarkdown — no preformatted text blocks anywhere.
func WriteJSON(w io.Writer, results []runner.Result) error {
	docs := make([]jsonResult, 0, len(results))
	for _, r := range results {
		doc := toJSONResult(r.Result)
		doc.ID = r.Experiment.ID
		doc.Title = r.Experiment.Title
		doc.Status = status(r.Err)
		if r.Err != nil {
			doc.Error = r.Err.Error()
		}
		docs = append(docs, doc)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(docs)
}

func status(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}
