package sqlexec

// The SQL-text implementation of plan.Backend: the logical plan is
// rendered to the exact SQL the paper would ship to the RDBMS
// (sqlgen.Render), and executed by parsing and evaluating that text
// (Exec) — end-to-end through the statement surface. Cost
// estimation delegates to the native engine backend: the SQL path has
// no optimizer of its own, and sharing the estimator keeps the two
// backends' Estimate comparable on identical plans.

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sqlgen"
)

// Backend executes logical plans through their SQL text.
type Backend struct {
	DB      *engine.DB
	Profile *engine.Profile
}

// NewBackend wires the SQL backend over a database and profile.
func NewBackend(db *engine.DB, prof *engine.Profile) *Backend {
	return &Backend{DB: db, Profile: prof}
}

// Name identifies the backend in cache keys and EXPLAIN output.
func (b *Backend) Name() string { return "sql" }

// Compile validates the plan and checks that it renders to SQL, after
// checking that the executor supports the layout (the SQL schema
// mirrors the simple layout's tables only). A statement depends on its
// run's arguments, so each run renders its own.
func (b *Backend) Compile(n *plan.Node) (plan.Executable, error) {
	if b.DB.Layout != engine.LayoutSimple {
		return nil, fmt.Errorf("sqlexec: backend requires the simple layout, have %s", b.DB.Layout)
	}
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	e := &sqlExecutable{b: b, node: n, nparams: plan.NumParams(n), est: b.Estimate(n)}
	if _, err := sqlgen.Measure(n, e.options(nil)); err != nil {
		return nil, err
	}
	return e, nil
}

// Estimate is the native engine's plan costing: the SQL path executes
// the same logical plan and has no optimizer of its own, so both
// backends estimate a plan with one estimator.
func (b *Backend) Estimate(n *plan.Node) plan.Estimate {
	return engine.NewBackend(b.DB, b.Profile).Estimate(n)
}

// sqlExecutable is one compiled statement.
type sqlExecutable struct {
	b       *Backend
	node    *plan.Node
	nparams int
	est     plan.Estimate
}

// Estimate returns the compile-time estimate.
func (e *sqlExecutable) Estimate() plan.Estimate { return e.est }

func (e *sqlExecutable) options(args []string) sqlgen.Options {
	return sqlgen.Options{Layout: e.b.DB.Layout, Args: args}
}

// Run renders the statement, the parameters' literals rendered from
// args, then parses and evaluates it. The SQL surface reports no
// per-operator counters, so only the statement's total output is
// counted; workers is ignored (a real RDBMS owns its parallelism).
func (e *sqlExecutable) Run(workers int, args ...string) (*plan.RunResult, error) {
	if err := plan.CheckArgs(e.nparams, args); err != nil {
		return nil, err
	}
	sql, err := sqlgen.Render(e.node, e.options(args))
	if err != nil {
		return nil, err
	}
	rel, err := Exec(sql, e.b.DB)
	if err != nil {
		return nil, err
	}
	root, _ := plan.Skeleton(e.node, args)
	root.EstRows = e.est.Card
	root.ActualRows = int64(len(rel.Rows))
	ex := &plan.Explain{
		Backend: e.b.Name(),
		EstCost: e.est.Cost,
		EstCard: e.est.Card,
		SQL:     sql,
		Root:    root,
	}
	return &plan.RunResult{Tuples: rel.Decode(e.b.DB.Dict), Explain: ex}, nil
}
