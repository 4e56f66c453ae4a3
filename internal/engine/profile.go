package engine

// Profile is a set of estimator constants: the engine's one planner
// (planArm, unionEstimate, coverEstimate) reads them to cost a plan from
// the database's statistics alone, like the paper's engines. Postgres
// and DB2 model those systems' explain facilities (Sections 6.1–6.3),
// shortcuts and limits included; ProfileExt is the paper's external
// cost function ε, the one profile without sampling. Nothing mutates a
// profile.
type Profile struct {
	Name string

	// MaxStatementBytes is the maximum accepted SQL statement length; 0
	// means unlimited. DB2 rejects reformulated queries past ~2.1 MB
	// with "The statement is too long or too complex" (Section 6.3).
	MaxStatementBytes int

	// SampleThreshold/SampleSize model Postgres's estimation shortcuts
	// on extremely large queries (Section 6.3: "Postgres takes drastic
	// shortcuts when estimating the cost of an extremely large query").
	// When a union has more than SampleThreshold arms, its cost is
	// extrapolated from the first SampleSize arms. 0 disables sampling.
	SampleThreshold int
	SampleSize      int

	// Cost-model constants (cost units per tuple), set per engine
	// profile.
	CScanTuple float64 // sequential scan, per tuple
	CProbe     float64 // index probe, per input row; also per row through a cover's hash join
	CEmit      float64 // per produced row
	CDedup     float64 // per row entering a DISTINCT
	CMat       float64 // per row materialized into a CTE

	// RDFSlotFactor scales access costs on the RDF layout: every probe
	// must inspect the hashed predicate columns.
	RDFSlotFactor float64
}

// ProfilePostgres returns the Postgres-like profile: no statement
// limit, sampling shortcuts on very large unions.
func ProfilePostgres() *Profile {
	return &Profile{
		Name:            "postgres",
		SampleThreshold: 64,
		SampleSize:      16,
		CScanTuple:      1.0,
		CProbe:          1.4,
		CEmit:           0.6,
		CDedup:          0.9,
		CMat:            2.0,
		RDFSlotFactor:   float64(DefaultRDFSlots),
	}
}

// ProfileDB2 returns the DB2-like profile: exhaustive cost estimation
// but a hard statement-length limit; repeated scans are cheaper
// (buffer-locality work cited as [21] in the paper).
func ProfileDB2() *Profile {
	return &Profile{
		Name:              "db2",
		MaxStatementBytes: 2 * 1024 * 1024,
		CScanTuple:        0.8, // efficient repeated scans
		CProbe:            1.3,
		CEmit:             0.6,
		CDedup:            0.9,
		CMat:              1.8,
		RDFSlotFactor:     float64(DefaultRDFSlots),
	}
}

// ProfileExt returns the constants of the external cost function ε
// (Section 6.1, package cost): no sampling and no statement limit, so
// queries of every size are costed alike — what makes GDL/ext beat
// GDL/RDBMS on the largest reformulations under Postgres (Section
// 6.3). Materializing an intermediate tuple costs twice an index probe,
// which is what makes generalized covers' semijoin reducers pay off
// (Sections 5.2 and 6.3).
func ProfileExt() *Profile {
	return &Profile{
		Name:          "ext",
		CScanTuple:    1,
		CProbe:        1.5,
		CEmit:         0.5,
		CDedup:        1.2,
		CMat:          3,
		RDFSlotFactor: float64(DefaultRDFSlots),
	}
}

// StatementTooLongError mirrors DB2's SQL0101N failure mode.
type StatementTooLongError struct {
	Size  int
	Limit int
}

func (e *StatementTooLongError) Error() string {
	// Wording follows the server error quoted in Section 6.3.
	return "The statement is too long or too complex. Current SQL statement size is " +
		itoa(e.Size) + " (limit " + itoa(e.Limit) + ")"
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [20]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		n--
		buf[n] = '-'
	}
	return string(buf[n:])
}

// CheckStatementSize returns a StatementTooLongError when the profile
// rejects a statement of the given size.
func (p *Profile) CheckStatementSize(size int) error {
	if p.MaxStatementBytes > 0 && size > p.MaxStatementBytes {
		return &StatementTooLongError{Size: size, Limit: p.MaxStatementBytes}
	}
	return nil
}
