package bench

import (
	"fmt"

	"rsonpath"
)

// MultiSpec is one multi-query workload: a batch of queries evaluated
// together over a single dataset. The benchmark compares a one-pass
// QuerySet run against N independent Query runs over the same document.
type MultiSpec struct {
	// ID keys the workload (MQ2, MQ8, ...).
	ID string
	// Dataset is the jsongen profile name.
	Dataset string
	// Queries are the batch members.
	Queries []string
}

// MultiSpecs are the multi-query workloads at N ∈ {2, 8, 32}. The sets are
// descendant-heavy and lead with dense labels (author, title, name appear in
// nearly every Crossref item), the regime where every independent run has to
// stream most of the document: that is where sharing the classification pass
// pays. A batch of queries like $..vitamins_tags whose head-skip degenerates
// to a pure substring search would instead favour independent runs — see
// DESIGN.md.
var MultiSpecs = []MultiSpec{
	{"MQ2", "crossref", []string{
		"$..author..affiliation..name",
		"$..editor..affiliation..name",
	}},
	{"MQ8", "crossref", []string{
		"$..author..given",
		"$..author..family",
		"$..author..affiliation..name",
		"$..editor..affiliation..name",
		"$..reference..key",
		"$..issued..date-parts",
		"$..title",
		"$.items.*.DOI",
	}},
	{"MQ8a", "ast", []string{
		"$..inner..type.qualType",
		"$..inner..inner..type.qualType",
		"$..decl.name",
		"$..loc.includedFrom.file",
		"$..inner..name",
		"$..type..qualType",
		"$..name",
		"$..qualType",
	}},
	{"MQ32", "crossref", []string{
		"$..DOI",
		"$..title",
		"$..publisher",
		"$..type",
		"$..ORCID",
		"$..name",
		"$..given",
		"$..family",
		"$..sequence",
		"$..key",
		"$..unstructured",
		"$..date-parts",
		"$..author..given",
		"$..author..family",
		"$..author..ORCID",
		"$..author..name",
		"$..author..affiliation..name",
		"$..editor..name",
		"$..editor..affiliation..name",
		"$..reference..key",
		"$..reference..unstructured",
		"$..reference..DOI",
		"$..issued..date-parts",
		"$..affiliation..name",
		"$.items.*.title",
		"$.items.*.DOI",
		"$.items.*.type",
		"$.items.*.publisher",
		"$.items.*.author.*.given",
		"$.items.*.author.*.family",
		"$.items.*.author.*.affiliation.*.name",
		"$.items.*.reference.*.key",
	}},
}

// MultiResult is one multi-query measurement, serialisable as the
// machine-readable BENCH_multiquery.json record.
type MultiResult struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	N       int    `json:"n"`
	Bytes   int    `json:"bytes"`
	Matches int    `json:"matches"`
	// SetSeconds/SetGBps measure one QuerySet.Counts pass for the whole
	// batch.
	SetSeconds float64 `json:"set_seconds"`
	SetGBps    float64 `json:"set_gbps"`
	// IndepSeconds/IndepGBps measure N independent Query.Count passes.
	IndepSeconds float64 `json:"indep_seconds"`
	IndepGBps    float64 `json:"indep_gbps"`
	// Speedup is IndepSeconds / SetSeconds (> 1 means the set wins).
	Speedup float64 `json:"speedup"`
}

// RunMultiQuery measures every workload both ways. The two evaluation
// strategies must agree on the total match count; a mismatch is an error,
// not a benchmark result.
func (h *Harness) RunMultiQuery(specs []MultiSpec) ([]MultiResult, error) {
	var out []MultiResult
	for _, spec := range specs {
		data, err := h.Dataset(spec.Dataset)
		if err != nil {
			return nil, err
		}
		set, err := rsonpath.CompileSet(spec.Queries)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.ID, err)
		}
		indep := make([]*rsonpath.Query, len(spec.Queries))
		for i, src := range spec.Queries {
			if indep[i], err = rsonpath.Compile(src); err != nil {
				return nil, fmt.Errorf("%s: %w", spec.ID, err)
			}
		}

		setRes, err := h.MeasureFunc(len(data), func() (int, error) {
			counts, err := set.Counts(data)
			total := 0
			for _, n := range counts {
				total += n
			}
			return total, err
		})
		if err != nil {
			return nil, fmt.Errorf("%s set run: %w", spec.ID, err)
		}
		indepRes, err := h.MeasureFunc(len(data), func() (int, error) {
			total := 0
			for _, q := range indep {
				n, err := q.Count(data)
				if err != nil {
					return 0, err
				}
				total += n
			}
			return total, nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s independent runs: %w", spec.ID, err)
		}
		if setRes.Matches != indepRes.Matches {
			return nil, fmt.Errorf("%s: set found %d matches, independent runs %d",
				spec.ID, setRes.Matches, indepRes.Matches)
		}

		r := MultiResult{
			ID:           spec.ID,
			Dataset:      spec.Dataset,
			N:            len(spec.Queries),
			Bytes:        len(data),
			Matches:      setRes.Matches,
			SetSeconds:   setRes.Mean.Seconds(),
			SetGBps:      setRes.GBps,
			IndepSeconds: indepRes.Mean.Seconds(),
			IndepGBps:    indepRes.GBps,
		}
		if r.SetSeconds > 0 {
			r.Speedup = r.IndepSeconds / r.SetSeconds
		}
		out = append(out, r)
	}
	return out, nil
}
