package reformulate

import "repro/internal/query"

// ReformulateMinimal returns the minimal UCQ reformulation (§2.3 of the
// paper): the PerfectRef output with containment-redundant disjuncts
// removed. Results are memoized separately from Reformulate.
func (r *Reformulator) ReformulateMinimal(q query.CQ) (query.UCQ, error) {
	key := "min//" + memoKey(q)
	if u, ok := r.memoGet(key); ok {
		return u, nil
	}
	u, err := r.Reformulate(q)
	if err != nil {
		return query.UCQ{}, err
	}
	m := u.Minimize()
	r.memoPut(key, m)
	return m, nil
}
