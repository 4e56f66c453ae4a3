// Command obda answers a conjunctive query over a DL-LiteR knowledge
// base through the cover-based reformulation pipeline.
//
// Usage:
//
//	obda -tbox ontology.dl -abox data.facts \
//	     -query "q(x) <- PhDStudent(x), worksWith(y, x)" \
//	     -strategy gdl-ext -profile postgres -layout simple [-sql] [-explain]
//
// TBox syntax (one axiom per line): see dllite.ParseTBox. ABox syntax:
// one fact per line, A(a) or R(a,b).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/ntriples"
	"repro/internal/query"
	"repro/internal/sqlgen"
)

func main() {
	var (
		tboxPath    = flag.String("tbox", "", "path to the TBox file (required)")
		aboxPath    = flag.String("abox", "", "path to the ABox file (required)")
		queryText   = flag.String("query", "", "conjunctive query, e.g. \"q(x) <- A(x), R(x, y)\" (required)")
		strategy    = flag.String("strategy", "gdl-ext", "one of: ucq, ucq-min, uscq, croot, gdl-rdbms, gdl-ext, edl")
		profileName = flag.String("profile", "postgres", "engine profile: postgres or db2")
		layoutName  = flag.String("layout", "simple", "data layout: simple or rdf")
		showSQL     = flag.Bool("sql", false, "print the generated SQL")
		explain     = flag.Bool("explain", false, "print cover, fragment and cost details")
		consistency = flag.Bool("check-consistency", false, "verify T-consistency before answering")
		viaSQL      = flag.Bool("via-sql", false, "execute through the generated SQL text (alias for -backend sql)")
		backendName = flag.String("backend", "native", "execution backend: native, sql, or shard")
		shards      = flag.Int("shards", 0, "shard backend fan-out (0 = GOMAXPROCS; -backend shard only)")
		workers     = flag.Int("workers", 0, "evaluation worker budget (0 = sequential)")
		aboxFormat  = flag.String("abox-format", "facts", "ABox file format: facts or nt (N-Triples)")
	)
	flag.Parse()
	if *tboxPath == "" || *aboxPath == "" || *queryText == "" {
		flag.Usage()
		os.Exit(2)
	}
	tb, err := parseTBoxFile(*tboxPath)
	fatal(err)
	ab, err := parseABoxFile(*aboxPath, *aboxFormat)
	fatal(err)

	layout := engine.LayoutSimple
	if strings.EqualFold(*layoutName, "rdf") {
		layout = engine.LayoutRDF
	}
	prof := engine.ProfilePostgres()
	if strings.EqualFold(*profileName, "db2") {
		prof = engine.ProfileDB2()
	}
	db := engine.NewDB(layout)
	db.LoadABox(ab)

	q, err := query.ParseCQ(*queryText)
	fatal(err)

	a := core.New(tb, db, prof)
	a.Workers = *workers
	name := strings.ToLower(*backendName)
	if *viaSQL {
		name = "sql"
	}
	a.Backend, err = core.NewBackendByName(name, db, prof, *shards)
	fatal(err)
	if *consistency {
		violations, err := a.CheckConsistency()
		fatal(err)
		for _, v := range violations {
			fmt.Printf("INCONSISTENT: %s violated by %v\n", v.Axiom, v.Witness)
		}
		if len(violations) > 0 {
			os.Exit(1)
		}
		fmt.Println("KB is T-consistent")
	}

	res, err := a.Answer(q, core.Strategy(*strategy))
	if err != nil {
		fmt.Fprintf(os.Stderr, "obda: %v\n", err)
		os.Exit(1)
	}
	if *explain {
		fmt.Printf("strategy:   %s\n", res.Strategy)
		fmt.Printf("cover:      %v\n", res.Cover)
		fmt.Printf("fragments:  %d, disjuncts: %d\n", res.NumFragments, res.NumDisjuncts)
		fmt.Printf("sql size:   %d bytes\n", res.SQLSize)
		fmt.Printf("est. cost:  %.1f\n", res.EstCost)
		fmt.Printf("search:     %v, eval: %v\n", res.SearchTime, res.EvalTime)
		if res.Search != nil {
			fmt.Printf("explored:   %d Lq + %d Gq covers over %d fragments (%d reused)\n",
				res.Search.ExploredLq, res.Search.ExploredGq,
				res.Search.FragmentsEstimated, res.Search.FragmentsReused)
		}
		if res.Explain != nil {
			fmt.Print(res.Explain.Text())
		}
		if cs, ok := a.Backend.(interface{ CacheStats() (hits, misses uint64) }); ok {
			h, m := cs.CacheStats()
			fmt.Printf("shard cache: %d hit(s), %d miss(es)\n", h, m)
		}
	}
	if *showSQL {
		sql, err := sqlgen.Render(res.Plan, sqlgen.Options{Layout: layout, Pretty: true, Args: res.Args})
		fatal(err)
		fmt.Println(sql)
	}
	for _, t := range res.Tuples {
		fmt.Println(strings.Join(t, "\t"))
	}
	fmt.Fprintf(os.Stderr, "%d answer(s)\n", len(res.Tuples))
}

func parseTBoxFile(path string) (*dllite.TBox, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dllite.ParseTBox(f)
}

func parseABoxFile(path, format string) (*dllite.ABox, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if format == "nt" {
		return ntriples.Read(f, ntriples.Options{})
	}
	return dllite.ParseABox(f)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "obda: %v\n", err)
		os.Exit(1)
	}
}
