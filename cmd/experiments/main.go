// Command experiments regenerates every table and figure of the
// paper's evaluation (Section 6) on scaled LUBM∃ databases, through
// the harness in internal/exp.
//
// Usage:
//
//	experiments -all                 # everything, both scales
//	experiments -fig2 -scale 8       # Figure 2 on an 8-university DB
//	experiments -table6 -stats -timelimited -gcov
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/engine"
	"repro/internal/exp"
)

func main() {
	var (
		all         = flag.Bool("all", false, "run every experiment")
		fig2        = flag.Bool("fig2", false, "Figure 2: Postgres profile, simple layout")
		fig3        = flag.Bool("fig3", false, "Figure 3: DB2 profile, simple + RDF layouts")
		table6      = flag.Bool("table6", false, "Table 6: search-space sizes for A3–A6")
		stats       = flag.Bool("stats", false, "Sections 2.3/6.1: reformulation statistics")
		timelimited = flag.Bool("timelimited", false, "Section 6.4: time-limited GDL")
		gcov        = flag.Bool("gcov", false, "Section 6.3: generalized-cover frequency")
		minVsBest   = flag.Bool("minvsbest", false, "Section 2.3: minimal UCQ vs best cover")
		scale1      = flag.Int("scale", 8, "universities for the small dataset (LUBM∃ 15M analogue)")
		scale2      = flag.Int("scale2", 32, "universities for the large dataset (LUBM∃ 100M analogue)")
		bothScales  = flag.Bool("both-scales", false, "run figures on both dataset scales")
		seed        = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()
	if *all {
		*fig2, *fig3, *table6, *stats, *timelimited, *gcov, *minVsBest = true, true, true, true, true, true, true
		*bothScales = true
	}
	if !(*fig2 || *fig3 || *table6 || *stats || *timelimited || *gcov || *minVsBest) {
		flag.Usage()
		os.Exit(2)
	}
	scales := []int{*scale1}
	if *bothScales {
		scales = append(scales, *scale2)
	}

	if *table6 {
		env := exp.BuildEnv(*scale1, *seed, engine.LayoutSimple, engine.ProfilePostgres())
		runTable6(env)
	}
	if *stats {
		env := exp.BuildEnv(*scale1, *seed, engine.LayoutSimple, engine.ProfilePostgres())
		runStats(env)
	}
	for _, sc := range scales {
		if *fig2 {
			fmt.Printf("\n== Figure 2: evaluation time (ms), Postgres profile, simple layout, %d universities ==\n", sc)
			env := exp.BuildEnv(sc, *seed, engine.LayoutSimple, engine.ProfilePostgres())
			fmt.Printf("(%d facts)\n", env.DB.NumFacts())
			renderCells(exp.RunFigure2(env))
		}
		if *fig3 {
			fmt.Printf("\n== Figure 3: evaluation time (ms), DB2 profile, simple + RDF layouts, %d universities ==\n", sc)
			envS := exp.BuildEnv(sc, *seed, engine.LayoutSimple, engine.ProfileDB2())
			envR := exp.BuildEnv(sc, *seed, engine.LayoutRDF, engine.ProfileDB2())
			fmt.Printf("(%d facts)\n", envS.DB.NumFacts())
			renderCells(exp.RunFigure3(envS, envR))
		}
	}
	if *timelimited {
		env := exp.BuildEnv(*scale1, *seed, engine.LayoutSimple, engine.ProfilePostgres())
		runTimeLimited(env)
	}
	if *gcov {
		env := exp.BuildEnv(*scale1, *seed, engine.LayoutSimple, engine.ProfilePostgres())
		runGCov(env)
	}
	if *minVsBest {
		env := exp.BuildEnv(*scale2, *seed, engine.LayoutSimple, engine.ProfilePostgres())
		runMinVsBest(env)
	}
}

func runMinVsBest(env *exp.Env) {
	fmt.Println("\n== Minimal UCQ vs best cover (Section 2.3) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "query\t|minUCQ|\tminimize(ms)\tmin eval(ms)\tbest eval(ms)\tspeedup(incl. minimize)\tsame answers")
	for _, r := range exp.RunMinVsBest(env) {
		speedup := 0.0
		if r.BestTime > 0 {
			speedup = float64(r.MinUCQTime+r.MinimizeTime) / float64(r.BestTime)
		}
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.1fx\t%v\n",
			r.Query, r.MinUCQSize, ms(r.MinimizeTime), ms(r.MinUCQTime), ms(r.BestTime), speedup, r.SameAnswers)
	}
	w.Flush()
}

func renderCells(cells []exp.Cell) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "query\tseries\teval(ms)\tsearch(ms)\tanswers\tdisjuncts\tfrags\tsql(bytes)\tstatus")
	for _, c := range cells {
		status := "ok"
		if c.Err != nil {
			status = "ERROR: " + c.Err.Error()
			if len(status) > 60 {
				status = status[:60] + "…"
			}
		}
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%d\t%d\t%d\t%d\t%s\n",
			c.Query, c.Label(), ms(c.EvalTime), ms(c.SearchTime),
			c.Answers, c.Disjuncts, c.Fragments, c.SQLSize, status)
	}
	w.Flush()
}

func runTable6(env *exp.Env) {
	fmt.Println("\n== Table 6: search-space sizes for the star queries A3–A6 ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "query\tatoms\t|Lq|\t|Gq|\tGDL explored Lq\tGDL explored Gq\tGDL time(ms)")
	for _, r := range exp.RunTable6(env) {
		gq := fmt.Sprintf("%d", r.Gq)
		if r.GqCapped {
			gq = "> " + fmt.Sprintf("%d", r.Gq-1)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\t%d\t%.1f\n",
			r.Query, r.Atoms, r.Lq, gq, r.GDLLq, r.GDLGq, ms(r.GDLElapsed))
	}
	w.Flush()
}

func runStats(env *exp.Env) {
	fmt.Println("\n== Reformulation statistics (Sections 2.3 and 6.1) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "query\tatoms\t|UCQ|\t|minUCQ|\t|USCQ|\tSQL simple(B)\tSQL RDF(B)\tRDF>limit\treform(ms)")
	rows := exp.RunStats(env, true)
	totalAtoms, totalUCQ := 0, 0
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%v\t%.1f\n",
			r.Query, r.Atoms, r.UCQSize, r.MinUCQSize, r.USCQSize,
			r.SQLSimple, r.SQLRDF, r.RDFTooLong, ms(r.ReformSimple))
		totalAtoms += r.Atoms
		totalUCQ += r.UCQSize
	}
	w.Flush()
	fmt.Printf("avg atoms %.2f, avg |UCQ| %.1f (paper: 5.77 and 290.2)\n",
		float64(totalAtoms)/float64(len(rows)), float64(totalUCQ)/float64(len(rows)))
}

func runTimeLimited(env *exp.Env) {
	fmt.Println("\n== Time-limited GDL at 20ms vs full GDL (Section 6.4) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "query\tfull cost\tfull(ms)\tlimited cost\tlimited(ms)\tsame cover")
	for _, r := range exp.RunTimeLimited(env, 20*time.Millisecond) {
		fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%.0f\t%.1f\t%v\n",
			r.Query, r.FullCost, ms(r.FullTime), r.LimitedCost, ms(r.LimitedTime), r.SameCover)
	}
	w.Flush()
}

func runGCov(env *exp.Env) {
	fmt.Println("\n== Generalized covers picked by GDL (Section 6.3) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "query\tGDL/ext generalized\tGDL/RDBMS generalized")
	ext, rdbms := 0, 0
	rows := exp.RunGCov(env)
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%v\n", r.Query, r.ExtGeneralized, r.RDBMSGenerali)
		if r.ExtGeneralized {
			ext++
		}
		if r.RDBMSGenerali {
			rdbms++
		}
	}
	w.Flush()
	fmt.Printf("ext: %d/%d, RDBMS: %d/%d\n", ext, len(rows), rdbms, len(rows))
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
