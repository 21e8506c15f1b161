package report

import "repro/internal/experiments"

// jsonResult is the stable JSON shape of one experiment: structured
// series points, typed table cells and comparison pairs — no
// preformatted text anywhere.
type jsonResult struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	Status string       `json:"status,omitempty"`
	Error  string       `json:"error,omitempty"`
	Series []jsonSeries `json:"series,omitempty"`
	Tables []jsonTable  `json:"tables,omitempty"`
	Pairs  []jsonPair   `json:"pairs,omitempty"`
}

type jsonSeries struct {
	Title  string      `json:"title"`
	XLabel string      `json:"x_label,omitempty"`
	YLabel string      `json:"y_label,omitempty"`
	Points []jsonPoint `json:"points"`
}

type jsonPoint struct {
	Label      string  `json:"label"`
	Seconds    float64 `json:"seconds"`
	Joules     float64 `json:"joules"`
	NormPerf   float64 `json:"norm_perf"`
	NormEnergy float64 `json:"norm_energy"`
	NormEDP    float64 `json:"norm_edp"`
}

type jsonTable struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns,omitempty"`
	Rows    [][]any  `json:"rows"`
}

type jsonPair struct {
	Metric   string  `json:"metric"`
	Paper    float64 `json:"paper"`
	Measured float64 `json:"measured"`
	RelErr   float64 `json:"rel_err"`
}

func toJSONResult(r experiments.Result) jsonResult {
	out := jsonResult{ID: r.ID, Title: r.Title}
	for _, s := range r.Series {
		js := jsonSeries{Title: s.Title, XLabel: s.XLabel, YLabel: s.YLabel}
		for _, p := range s.Points {
			js.Points = append(js.Points, jsonPoint{
				Label: p.Label, Seconds: p.Seconds, Joules: p.Joules,
				NormPerf: p.NormPerf, NormEnergy: p.NormEnerg, NormEDP: p.NormEDP(),
			})
		}
		out.Series = append(out.Series, js)
	}
	for _, t := range r.Tables {
		out.Tables = append(out.Tables, jsonTable{Name: t.Name, Columns: t.Columns, Rows: t.Rows})
	}
	for _, p := range r.Pairs {
		out.Pairs = append(out.Pairs, jsonPair{Metric: p.Metric, Paper: p.Paper, Measured: p.Measured, RelErr: p.RelErr()})
	}
	return out
}
