package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/reformulate"
)

// refEntry identifies an answer set without storing it: its size and
// an order-independent digest (the sum of the tuples' 64-bit hashes,
// so a duplicated or missing tuple changes it).
type refEntry struct {
	Count  int    `json:"count"`
	Digest string `json:"digest"`
}

// reference maps workload.refKey to the expected answer.
type reference map[string]refEntry

func digest(tuples [][]string) refEntry {
	var sum uint64
	for _, t := range tuples {
		h := fnv.New64a()
		for _, v := range t {
			_, _ = h.Write([]byte(v)) // hash.Hash never fails
			_, _ = h.Write([]byte{0})
		}
		sum += h.Sum64()
	}
	return refEntry{Count: len(tuples), Digest: fmt.Sprintf("%016x", sum)}
}

// check reports whether a read returned what it had to: the reference
// answer, and for a probe the individual just written.
func (r reference) check(o op, tuples [][]string) bool {
	if o.Want != "" {
		found := false
		for _, t := range tuples {
			found = found || (len(t) == 1 && t[0] == o.Want)
		}
		if !found {
			return false
		}
	}
	if o.RefKey == "" {
		return true
	}
	want, ok := r[o.RefKey]
	return ok && want == digest(tuples)
}

//go:embed golden/*.json
var goldenFS embed.FS

// golden returns the committed reference of a seed, or nil.
func golden(seed int64) reference {
	data, err := goldenFS.ReadFile(fmt.Sprintf("golden/seed-%d.json", seed))
	if err != nil {
		return nil
	}
	var r reference
	if json.Unmarshal(data, &r) != nil {
		return nil
	}
	return r
}

// liftedText turns a one-constant template into the query that
// answers every instance at once: the constant becomes a leading head
// variable. Substituting a constant for an answer variable commutes
// with certain-answer semantics, so instance C's answer is the lifted
// answer's rows that start with C.
func liftedText(c class) string {
	head, body, _ := strings.Cut(c.Text, " <- ")
	name, _, _ := strings.Cut(head, "(")
	return fmt.Sprintf("%s(k0, %s) <- %s", name, c.Head, strings.ReplaceAll(body, "'%s'", "k0"))
}

// referenceFor returns the expected answers of every fixed class and
// template instance of w. Committed goldens are used where they cover
// a key; the rest is computed now, untimed, by the sql backend's plain
// UCQ answers over a database of its own — an evaluator that shares no
// operator code with the native and shard backends.
func referenceFor(w *workload, in *inputs, seed int64) (reference, error) {
	ref := reference{}
	gold := golden(seed)
	var todo []class
	var texts []string
	seen := map[string]bool{}
	for _, c := range w.Classes {
		key := w.refKey(c, "")
		switch g, ok := gold[key]; {
		case seen[c.Query]:
		case w.probe(c):
		case c.template():
			todo, texts = append(todo, c), append(texts, liftedText(c))
		case ok:
			ref[key] = g
		default:
			todo, texts = append(todo, c), append(texts, c.Text)
		}
		seen[c.Query] = true
	}
	if len(todo) == 0 {
		return ref, nil
	}
	db := generateDB(w, seed)
	db.Finalize()
	answers, err := sqlAnswers(db, texts)
	if err != nil {
		return nil, err
	}
	for i, c := range todo {
		if !c.template() {
			ref[w.refKey(c, "")] = digest(answers[i])
			continue
		}
		groups := map[string][][]string{}
		for _, t := range answers[i] {
			groups[t[0]] = append(groups[t[0]], t[1:])
		}
		for _, constant := range in.slots[c.Slot] {
			ref[w.refKey(c, constant)] = digest(groups[constant]) // no rows: the empty answer
		}
	}
	return ref, nil
}

// fixedTexts returns w's distinct fixed queries and their texts.
func fixedTexts(w *workload) (cs []class, texts []string) {
	seen := map[string]bool{}
	for _, c := range w.Classes {
		if !c.template() && !seen[c.Query] {
			seen[c.Query] = true
			cs, texts = append(cs, c), append(texts, c.Text)
		}
	}
	return cs, texts
}

// sqlAnswers evaluates the queries' plain UCQ reformulations through
// the sql backend, P at a time.
func sqlAnswers(db *engine.DB, texts []string) ([][][]string, error) {
	prof := engine.ProfilePostgres()
	a := core.New(lubm.TBox(), db, prof)
	sqlb, err := core.NewBackendByName("sql", db, prof, 0)
	if err != nil {
		return nil, err
	}
	out := make([][][]string, len(texts))
	errs := make([]error, len(texts))
	next := make(chan int)
	var wg sync.WaitGroup
	for range P {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				q, err := query.ParseCQ(texts[i])
				if err != nil {
					errs[i] = err
					continue
				}
				res, err := a.AnswerWith(q, core.StrategyUCQ, sqlb)
				if err != nil {
					errs[i] = fmt.Errorf("reference %s: %w", q.Name, err)
					continue
				}
				out[i] = res.Tuples
			}
		}()
	}
	for i := range texts {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// stillHolds re-evaluates the fixed classes on the environment's own,
// now mutated, database and reports how many of them no longer match
// ref.
// Certain answers only grow with added facts, so an answer that is
// equal before the first write and after the last was equal at every
// read in between.
func stillHolds(e *env, ref reference) (checked, mismatches int, err error) {
	fixed, texts := fixedTexts(e.w)
	answers, err := sqlAnswers(e.db, texts)
	if err != nil {
		return 0, 0, err
	}
	for i, c := range fixed {
		if digest(answers[i]) != ref[e.w.refKey(c, "")] {
			mismatches++
		}
	}
	return len(fixed), mismatches, nil
}

// regenGolden computes the committed reference of a seed: at the
// cold_plan scale from internal/naive over the plain UCQ reformulation
// (no engine code at all; about 12 s), at the larger scales from the
// sql backend.
func regenGolden(seed int64) (reference, error) {
	ref := reference{}
	for _, w := range workloads(false) {
		var fixed []class
		var texts []string
		all, _ := fixedTexts(w)
		for _, c := range all {
			if _, done := ref[w.refKey(c, "")]; !done { // not shared with an earlier workload
				fixed, texts = append(fixed, c), append(texts, c.Text)
			}
		}
		if w.Univ == univCold {
			ab := lubm.GenerateABox(lubm.Config{Universities: w.Univ, Seed: seed})
			r := reformulate.New(lubm.TBox())
			for _, c := range fixed {
				u, err := r.Reformulate(query.MustParseCQ(c.Text))
				if err != nil {
					return nil, err
				}
				var tuples [][]string
				for _, t := range naive.EvalUCQ(u, ab).Sorted() {
					tuples = append(tuples, t)
				}
				ref[w.refKey(c, "")] = digest(tuples)
			}
			continue
		}
		db := generateDB(w, seed)
		db.Finalize()
		answers, err := sqlAnswers(db, texts)
		if err != nil {
			return nil, err
		}
		for i, c := range fixed {
			ref[w.refKey(c, "")] = digest(answers[i])
		}
	}
	return ref, nil
}

// marshalReference renders a reference with sorted keys, one per line.
func marshalReference(r reference) []byte {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		e := r[k]
		fmt.Fprintf(&b, "  %q: {\"count\": %d, \"digest\": %q}", k, e.Count, e.Digest)
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return []byte(b.String())
}
