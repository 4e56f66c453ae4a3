package plan

import "fmt"

// Estimate is a backend's whole-plan cost and output-cardinality
// prediction for one plan tree — the quantity the cover search
// minimizes and EXPLAIN reports.
type Estimate struct {
	Cost float64
	Card float64
}

// RunResult is one execution's output: decoded answer tuples plus the
// annotated explanation (estimates frozen at compile time, actual
// per-operator row counters observed during the run).
type RunResult struct {
	Tuples  [][]string
	Explain *Explain
}

// Executable is a compiled plan, ready to run any number of times
// against the backend's live data. Implementations must be safe for
// concurrent runs — physical state is rebuilt, or re-opened, per run.
//
// A plan compiled from a parameterized tree (query.Parameterize) serves
// every instance of its template: each run binds parameter i to
// args[i], and what it returns — tuples, EXPLAIN details, SQL text — is
// the instance's, exactly what compiling and running the instance's own
// tree would return. The estimate does not depend on the arguments: no
// estimator reads a constant's value.
type Executable interface {
	// Estimate returns the whole-plan estimate frozen at compile time.
	Estimate() Estimate
	// Run executes the plan with the given worker budget (<= 1 is
	// fully sequential; backends may ignore the budget) and its
	// parameters bound to args; a run with fewer arguments than the
	// plan has parameters fails.
	Run(workers int, args ...string) (*RunResult, error)
}

// CheckArgs rejects a run that binds fewer arguments than a plan with
// nparams parameters (NumParams) needs: what Run fails on.
func CheckArgs(nparams int, args []string) error {
	if len(args) < nparams {
		return fmt.Errorf("plan: %d parameter(s), the run binds %d", nparams, len(args))
	}
	return nil
}

// Backend turns logical plans into executables — the physical half of
// the logical/physical split. The engine's native streaming-operator
// pipeline and the sqlexec SQL-text path both implement it; selecting
// a backend replaces the old ViaSQL switch.
type Backend interface {
	// Name identifies the backend (it keys answer-cache entries).
	Name() string
	// Compile validates the plan (Validate) and lowers it into an
	// executable. It is the one validation a tree gets: callers such
	// as core.Answerer hand it unvalidated rewritten trees, and
	// parameterized ones.
	Compile(n *Node) (Executable, error)
	// Estimate scores the plan without compiling physical state; a
	// malformed plan costs +Inf rather than erroring (search code
	// treats it as "never pick this").
	Estimate(n *Node) Estimate
}
