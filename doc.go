// Package repro is a from-scratch Go reproduction of
//
//	Damian Bursztyn, François Goasdoué, Ioana Manolescu.
//	"Teaching an RDBMS about ontological constraints." VLDB 2016.
//
// The library implements cost-driven cover-based query answering for
// DL-LiteR ontologies over an RDBMS-style engine, together with every
// substrate the paper depends on. The packages are:
//
//	internal/dllite       DL-LiteR TBoxes/ABoxes, dep(N), consistency
//	internal/query        CQ/UCQ/SCQ/USCQ/JUCQ/JUSCQ dialects (Table 4)
//	internal/reformulate  CQ-to-UCQ (PerfectRef) and CQ-to-USCQ
//	internal/cover        covers, safe covers, Croot, Lq, Gq (Defs 1-7)
//	internal/engine       the RDBMS substrate (two layouts, two profiles)
//	                      with a streaming batched operator pipeline:
//	                      plans compile to Open/Next(*Batch)/Close
//	                      operator trees (scan, index-nested-loop join,
//	                      filter, project, streaming distinct, and
//	                      sequential/parallel union), with per-operator
//	                      row counters feeding the cost model
//	internal/sqlgen       SQL translation, statement-size accounting
//	internal/cost         the external cost function ε (Section 6.1)
//	internal/search       EDL and GDL (Algorithm 1), time-limited GDL
//	internal/core         the Answerer tying everything together
//	internal/lubm         the LUBM∃ benchmark (TBox, generator, Q1-Q13)
//	internal/exp          the experiment harness behind cmd/experiments
//
// See README.md for a tour ("Package tour" lists every package). The
// benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation section; cmd/experiments prints them as tables.
package repro
