// Bulk scanning: run a child-only query over a Crossref-style metadata
// dump, its descendant rewrite, and the same child-only query over a
// document index — in miniature, the paper's Experiment B (rewriting with
// descendants both simplifies the query and speeds it up) and the
// classify-once, query-many path that serves repeat queries.
package main

import (
	"fmt"
	"log"
	"time"

	"rsonpath"
	"rsonpath/internal/jsongen"
)

func main() {
	data, err := jsongen.Generate("crossref", 8<<20, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Crossref-style dump: %d bytes\n\n", len(data))

	start := time.Now()
	doc, err := rsonpath.Index(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index built once in %v\n\n", time.Since(start).Round(time.Microsecond))

	const child = "$.items.*.author.*.affiliation.*.name"
	rows := []struct {
		query   string
		indexed bool
	}{
		{child, false},
		{"$..author..affiliation..name", false},
		{child, true},
	}
	fmt.Printf("%-40s %-8s %9s %12s %9s\n", "query", "plan", "matches", "time", "GB/s")
	for _, r := range rows {
		q, err := rsonpath.Compile(r.query)
		if err != nil {
			log.Fatal(err)
		}
		count := func() (int, error) { return q.Count(data) }
		if r.indexed {
			count = func() (int, error) { return q.CountIndexed(doc) }
		}
		// Warm-up, then a timed run (§5.1 methodology in miniature).
		if _, err := count(); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		n, err := count()
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		plan := q.Explain(rsonpath.DocStats{Indexed: r.indexed})
		fmt.Printf("%-40s %-8s %9d %12v %9.2f\n",
			r.query, plan.Strategy, n, elapsed.Round(time.Microsecond),
			float64(len(data))/elapsed.Seconds()/1e9)
	}
}
