package query

// ContainedIn reports whether q1 ⊆ q2 holds (every answer of q1 over any
// database is an answer of q2), decided by searching for a homomorphism
// from q2 into q1 that maps the head of q2 onto the head of q1
// positionally (Chandra–Merlin).
//
// Both queries must have the same head arity; otherwise false.
func ContainedIn(q1, q2 CQ) bool {
	if len(q1.Head) != len(q2.Head) {
		return false
	}
	// Seed mapping: head of q2 ↦ head of q1, positionally. A head
	// constant (PerfectRef's reduce step makes them) maps only to
	// itself, like a constant in the body.
	h := make(Substitution)
	for i, t2 := range q2.Head {
		t1 := q1.Head[i]
		if t2.Const {
			if t2 != t1 {
				return false
			}
			continue
		}
		if bound, ok := h[t2.Name]; ok {
			if bound != t1 {
				return false // q2 repeats a head var that q1 does not
			}
			continue
		}
		h[t2.Name] = t1
	}
	return extendHom(q2.Atoms, 0, h, q1.Atoms)
}

// extendHom tries to map q2's atoms[i:] into targets, extending h.
func extendHom(atoms []Atom, i int, h Substitution, targets []Atom) bool {
	if i == len(atoms) {
		return true
	}
	a := atoms[i]
	for _, t := range targets {
		if t.Pred != a.Pred || len(t.Args) != len(a.Args) {
			continue
		}
		// try mapping a onto t
		added := make([]string, 0, len(a.Args))
		ok := true
		for j := range a.Args {
			src, dst := a.Args[j], t.Args[j]
			if src.Const {
				if src != dst {
					ok = false
					break
				}
				continue
			}
			if bound, exists := h[src.Name]; exists {
				if bound != dst {
					ok = false
					break
				}
				continue
			}
			h[src.Name] = dst
			added = append(added, src.Name)
		}
		if ok && extendHom(atoms, i+1, h, targets) {
			return true
		}
		for _, v := range added {
			delete(h, v)
		}
	}
	return false
}
