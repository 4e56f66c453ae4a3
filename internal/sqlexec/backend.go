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

// Compile validates the plan and renders its SQL, after checking that
// the executor supports the layout (the SQL schema mirrors the simple
// layout's tables only).
func (b *Backend) Compile(n *plan.Node) (plan.Executable, error) {
	if b.DB.Layout != engine.LayoutSimple {
		return nil, fmt.Errorf("sqlexec: backend requires the simple layout, have %s", b.DB.Layout)
	}
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	sql, err := sqlgen.Render(n, sqlgen.Options{Layout: b.DB.Layout})
	if err != nil {
		return nil, err
	}
	return &sqlExecutable{b: b, node: n, sql: sql, est: b.Estimate(n)}, nil
}

// Estimate is the native engine's plan costing: the SQL path executes
// the same logical plan and has no optimizer of its own, so both
// backends estimate a plan with one estimator.
func (b *Backend) Estimate(n *plan.Node) plan.Estimate {
	return engine.NewBackend(b.DB, b.Profile).Estimate(n)
}

// sqlExecutable is one compiled statement.
type sqlExecutable struct {
	b    *Backend
	node *plan.Node
	sql  string
	est  plan.Estimate
}

// Estimate returns the compile-time estimate.
func (e *sqlExecutable) Estimate() plan.Estimate { return e.est }

// SQL exposes the generated statement (diagnostics and tests).
func (e *sqlExecutable) SQL() string { return e.sql }

// Run parses and evaluates the statement. The SQL surface reports no
// per-operator counters, so only the statement's total output is
// counted; workers is ignored (a real RDBMS owns its parallelism).
func (e *sqlExecutable) Run(workers int) (*plan.RunResult, error) {
	rel, err := Exec(e.sql, e.b.DB)
	if err != nil {
		return nil, err
	}
	root, _ := plan.Skeleton(e.node)
	root.EstRows = e.est.Card
	root.ActualRows = int64(len(rel.Rows))
	ex := &plan.Explain{
		Backend: e.b.Name(),
		EstCost: e.est.Cost,
		EstCard: e.est.Card,
		SQL:     e.sql,
		Root:    root,
	}
	return &plan.RunResult{Tuples: rel.Decode(e.b.DB.Dict), Explain: ex}, nil
}
