package cq

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"

	"delprop/internal/relation"
)

// Derivation is the join path of one answer: the ID of the base tuple
// matched by each body atom, in body order. IDs belong to the instance
// the result was evaluated over (Result.DB). With self-joins the same base
// tuple may occur for several atoms.
type Derivation []relation.TID

// Format renders the derivation as T1(..) ⋈ T2(..), resolving IDs in db.
func (d Derivation) Format(db *relation.Instance) string {
	parts := make([]string, len(d))
	for i, id := range d {
		parts[i] = db.ByID(id).String()
	}
	return strings.Join(parts, " ⋈ ")
}

// Answer is one view tuple: a head tuple together with every derivation
// producing it. For key-preserving queries each answer has exactly one
// derivation (the keys in the head pin down every joined base tuple); for
// general queries there may be several.
type Answer struct {
	Tuple       relation.Tuple
	Derivations []Derivation
}

// Result is the materialized result of evaluating a query: Q(D) plus
// provenance.
type Result struct {
	Query *Query
	// DB is the instance the query was evaluated over; the derivations
	// hold its tuple IDs.
	DB      *relation.Instance
	answers []*Answer
	// index is an open-addressing table of answer positions plus one (0
	// marks a free slot), probed from the hash of a head tuple's
	// encoding; its size is a power of two at least twice the answers.
	index []int32
}

// hashSeed keys the answer index; hashes never leave the process.
var hashSeed = maphash.MakeSeed()

// find returns the position of the answer whose head hashes to h and
// satisfies same, or -1.
func (r *Result) find(h uint64, same func(int32) bool) int32 {
	mask := uint64(len(r.index) - 1)
	for i := h & mask; r.index[i] != 0; i = (i + 1) & mask {
		if a := r.index[i] - 1; same(a) {
			return a
		}
	}
	return -1
}

// insert files answer a under hash h.
func (r *Result) insert(h uint64, a int32) {
	mask := uint64(len(r.index) - 1)
	i := h & mask
	for r.index[i] != 0 {
		i = (i + 1) & mask
	}
	r.index[i] = a + 1
}

// NumAnswers returns |Q(D)|.
func (r *Result) NumAnswers() int { return len(r.answers) }

// Answers returns all answers in first-derived order. The slice is shared
// and must not be mutated.
func (r *Result) Answers() []*Answer { return r.answers[:len(r.answers):len(r.answers)] }

// Position returns the index of the head tuple's answer in Answers.
func (r *Result) Position(t relation.Tuple) (int, bool) {
	var buf [128]byte
	h := maphash.Bytes(hashSeed, t.AppendEncode(buf[:0]))
	i := r.find(h, func(i int32) bool { return r.answers[i].Tuple.Equal(t) })
	return int(i), i >= 0
}

// Lookup returns the answer for the given head tuple, if present.
func (r *Result) Lookup(t relation.Tuple) (*Answer, bool) {
	i, ok := r.Position(t)
	if !ok {
		return nil, false
	}
	return r.answers[i], true
}

// Contains reports whether the head tuple is an answer.
func (r *Result) Contains(t relation.Tuple) bool {
	_, ok := r.Position(t)
	return ok
}

// Tuples returns the answer tuples in first-derived order.
func (r *Result) Tuples() []relation.Tuple {
	out := make([]relation.Tuple, len(r.answers))
	for i, a := range r.answers {
		out[i] = a.Tuple
	}
	return out
}

// String renders the result sorted, for golden tests.
func (r *Result) String() string {
	lines := make([]string, 0, len(r.answers))
	for _, a := range r.answers {
		lines = append(lines, a.Tuple.String())
	}
	sort.Strings(lines)
	return r.Query.Name + "(D) = {" + strings.Join(lines, ", ") + "}"
}

// Evaluate computes Q(D) with provenance. The query must be valid for the
// instance's schemas (Validate); Evaluate re-checks and returns the
// validation error otherwise.
//
// The evaluator is an index-backed backtracking join: atoms are reordered
// greedily (most bound variables first, smaller relations breaking ties),
// and for each atom a hash index on its bound positions is built once and
// reused across the whole evaluation.
func Evaluate(q *Query, db *relation.Instance) (*Result, error) {
	if err := q.Validate(InstanceSchemas(db)); err != nil {
		return nil, err
	}
	ev := &evaluator{
		q:   q,
		db:  db,
		res: &Result{Query: q, DB: db, index: make([]int32, 16)},
	}
	ev.run()
	return ev.res, nil
}

// MustEvaluate is Evaluate that panics on error; for tests and examples
// where the query is statically known to be valid.
func MustEvaluate(q *Query, db *relation.Instance) *Result {
	r, err := Evaluate(q, db)
	if err != nil {
		panic(err)
	}
	return r
}

// ExplainPlan reports the atom evaluation order the backtracking evaluator
// would pick for this query over this instance, one step per line with the
// relation cardinalities — the EXPLAIN counterpart for debugging slow
// workloads.
func ExplainPlan(q *Query, db *relation.Instance) (string, error) {
	if err := q.Validate(InstanceSchemas(db)); err != nil {
		return "", err
	}
	ev := &evaluator{q: q, db: db}
	order := ev.planOrder()
	var b strings.Builder
	bound := make(map[string]bool)
	for step, ai := range order {
		a := q.Body[ai]
		nb := 0
		for _, t := range a.Terms {
			if !t.IsVar() || bound[t.Var] {
				nb++
			}
		}
		fmt.Fprintf(&b, "%d. %s  (|%s|=%d, %d/%d positions bound)\n",
			step+1, a, a.Relation, db.Relation(a.Relation).Len(), nb, len(a.Terms))
		for _, v := range a.Vars() {
			bound[v] = true
		}
	}
	return b.String(), nil
}

type evaluator struct {
	q   *Query
	db  *relation.Instance
	res *Result

	// Variables are numbered; vals holds the current assignment. The plan
	// fixes which variables each step binds, so no bound flags are kept.
	vals []relation.Value
	// head[i] says where head position i is read: the body atom and term
	// position binding its variable (atom -1 for a constant).
	head       []source
	rels       []*relation.Relation // per body atom
	steps      []planStep
	indexes    map[string]*relation.Index // keyed by relation + positions
	derivation Derivation                 // per original body position
	key        relation.Tuple
	headBuf    relation.Tuple
	encBuf     []byte
	// Answers accumulate as offsets into one growing derivation array:
	// first[i] is answer i's first derivation in tids, and last[i] its
	// latest further one in more (-1 for none). finish lays them out in
	// exact-size arrays, so a retained result holds no spare capacity.
	tids   []relation.TID
	first  []int32
	last   []int32
	more   []further
	hashes []uint64 // per answer, to rebuild the index as it grows
}

// source locates a value in a match: body atom and term position.
type source struct{ atom, pos int }

// further is an answer's additional derivation (non-key-preserving
// queries): its offset in tids and the answer's previous one in more.
type further struct{ off, prev int32 }

// planStep joins one atom. Per position, slot is the variable number (-1
// for a constant) and bind reports whether this position binds it rather
// than checks it. boundPos lists the positions known before the step —
// constants and variables of earlier steps — which its index covers.
type planStep struct {
	atom     int
	rel      *relation.Relation
	slot     []int
	bind     []bool
	boundPos []int
	idx      *relation.Index // built on first use
}

func (ev *evaluator) run() {
	vars := make(map[string]int)
	var binder []source
	bound := make(map[string]bool)
	for _, ai := range ev.planOrder() {
		a := ev.q.Body[ai]
		st := planStep{atom: ai, rel: ev.db.Relation(a.Relation), slot: make([]int, len(a.Terms)), bind: make([]bool, len(a.Terms))}
		for p, t := range a.Terms {
			st.slot[p] = -1
			if !t.IsVar() || bound[t.Var] {
				st.boundPos = append(st.boundPos, p)
			}
			if !t.IsVar() {
				continue
			}
			n, ok := vars[t.Var]
			if !ok {
				n = len(vars)
				vars[t.Var] = n
				binder = append(binder, source{ai, p})
				st.bind[p] = true
			}
			st.slot[p] = n
		}
		for _, t := range a.Terms {
			bound[t.Var] = t.IsVar()
		}
		ev.steps = append(ev.steps, st)
	}
	ev.head = make([]source, len(ev.q.Head))
	for i, t := range ev.q.Head {
		ev.head[i] = source{atom: -1}
		if t.IsVar() {
			ev.head[i] = binder[vars[t.Var]]
		}
	}
	ev.rels = make([]*relation.Relation, len(ev.q.Body))
	for _, st := range ev.steps {
		ev.rels[st.atom] = st.rel
	}
	ev.vals = make([]relation.Value, len(vars))
	ev.indexes = make(map[string]*relation.Index)
	ev.derivation = make(Derivation, len(ev.q.Body))
	ev.headBuf = make(relation.Tuple, len(ev.q.Head))
	ev.join(0)
	ev.finish()
}

// planOrder picks an atom order greedily: repeatedly take the atom with the
// most already-bound variables; ties broken by smaller relation, then body
// position (determinism).
func (ev *evaluator) planOrder() []int {
	n := len(ev.q.Body)
	used := make([]bool, n)
	bound := make(map[string]bool)
	var order []int
	for len(order) < n {
		best, bestBound, bestSize := -1, -1, 0
		for i, a := range ev.q.Body {
			if used[i] {
				continue
			}
			nb := 0
			for _, t := range a.Terms {
				if !t.IsVar() || bound[t.Var] {
					nb++
				}
			}
			size := ev.db.Relation(a.Relation).Len()
			if best == -1 || nb > bestBound || (nb == bestBound && size < bestSize) {
				best, bestBound, bestSize = i, nb, size
			}
		}
		used[best] = true
		order = append(order, best)
		for _, v := range ev.q.Body[best].Vars() {
			bound[v] = true
		}
	}
	return order
}

// candidates returns the IDs of the step's tuples consistent with the
// current assignment, through the step's index on its bound positions.
func (ev *evaluator) candidates(st *planStep) []relation.TID {
	if len(st.boundPos) == 0 {
		return st.rel.IDs()
	}
	a := ev.q.Body[st.atom]
	if st.idx == nil {
		ik := indexKey(a.Relation, st.boundPos)
		if st.idx = ev.indexes[ik]; st.idx == nil {
			st.idx = relation.BuildIndex(st.rel, st.boundPos)
			ev.indexes[ik] = st.idx
		}
	}
	ev.key = ev.key[:0]
	for _, p := range st.boundPos {
		if n := st.slot[p]; n >= 0 {
			ev.key = append(ev.key, ev.vals[n])
		} else {
			ev.key = append(ev.key, a.Terms[p].Const)
		}
	}
	return st.idx.Lookup(ev.key)
}

func indexKey(rel string, positions []int) string {
	var b strings.Builder
	b.WriteString(rel)
	for _, p := range positions {
		fmt.Fprintf(&b, ",%d", p)
	}
	return b.String()
}

// join extends the current partial match with the step-th atom in plan
// order, recursing to enumerate all matches.
func (ev *evaluator) join(step int) {
	if step == len(ev.steps) {
		ev.emit()
		return
	}
	st := &ev.steps[step]
	for _, id := range ev.candidates(st) {
		if ev.bind(st, st.rel.Tuple(id)) {
			ev.derivation[st.atom] = id
			ev.join(step + 1)
		}
	}
}

// bind unifies the step's atom with tuple t: it checks constants and
// already-bound variables and assigns the variables the step binds. On a
// conflict it reports false; the partial assignment is harmless, since
// every variable is assigned before it is read.
func (ev *evaluator) bind(st *planStep, t relation.Tuple) bool {
	a := ev.q.Body[st.atom]
	for p, n := range st.slot {
		switch {
		case n < 0:
			if a.Terms[p].Const != t[p] {
				return false
			}
		case st.bind[p]:
			ev.vals[n] = t[p]
		case ev.vals[n] != t[p]:
			return false
		}
	}
	return true
}

// headValue returns head position i of the answer whose derivation starts
// at offset off in tids.
func (ev *evaluator) headValue(off int32, i int) relation.Value {
	src := ev.head[i]
	if src.atom < 0 {
		return ev.q.Head[i].Const
	}
	return ev.rels[src.atom].Tuple(ev.tids[int(off)+src.atom])[src.pos]
}

// emit records the current complete match as an answer + derivation.
func (ev *evaluator) emit() {
	for i := range ev.head {
		if src := ev.head[i]; src.atom >= 0 {
			ev.headBuf[i] = ev.rels[src.atom].Tuple(ev.derivation[src.atom])[src.pos]
		} else {
			ev.headBuf[i] = ev.q.Head[i].Const
		}
	}
	ev.encBuf = ev.headBuf.AppendEncode(ev.encBuf[:0])
	h := maphash.Bytes(hashSeed, ev.encBuf)
	res := ev.res
	pos := res.find(h, func(a int32) bool {
		for i, v := range ev.headBuf {
			if ev.headValue(ev.first[a], i) != v {
				return false
			}
		}
		return true
	})
	n := int32(len(ev.derivation))
	if pos >= 0 {
		// Distinct matches always produce distinct derivations for safe
		// queries, but self-joins can revisit the same derivation via
		// symmetric variable roles; dedupe defensively.
		if f := ev.first[pos]; slices.Equal(ev.tids[f:f+n], ev.derivation) {
			return
		}
		for k := ev.last[pos]; k >= 0; k = ev.more[k].prev {
			if off := ev.more[k].off; slices.Equal(ev.tids[off:off+n], ev.derivation) {
				return
			}
		}
	}
	off := int32(len(ev.tids))
	ev.tids = append(ev.tids, ev.derivation...)
	if pos >= 0 {
		ev.more = append(ev.more, further{off: off, prev: ev.last[pos]})
		ev.last[pos] = int32(len(ev.more) - 1)
		return
	}
	if 2*(len(ev.first)+1) > len(res.index) {
		res.index = make([]int32, 2*len(res.index))
		for a, ha := range ev.hashes {
			res.insert(ha, int32(a))
		}
	}
	res.insert(h, int32(len(ev.first)))
	ev.hashes = append(ev.hashes, h)
	ev.first = append(ev.first, off)
	ev.last = append(ev.last, -1)
}

// finish lays the answers out in exact-size arrays, derivations in
// emission order.
func (ev *evaluator) finish() {
	hl, n := len(ev.q.Head), len(ev.q.Body)
	tids := slices.Clone(ev.tids)
	heads := make([]relation.Value, len(ev.first)*hl)
	derivs := make([]Derivation, 0, len(ev.first)+len(ev.more))
	answers := make([]Answer, len(ev.first))
	res := ev.res
	res.answers = make([]*Answer, len(ev.first))
	var chain []int32
	for a, f := range ev.first {
		ans := &answers[a]
		ans.Tuple = heads[a*hl : (a+1)*hl : (a+1)*hl]
		for i := range ans.Tuple {
			ans.Tuple[i] = ev.headValue(f, i)
		}
		chain = append(chain[:0], f)
		for k := ev.last[a]; k >= 0; k = ev.more[k].prev {
			chain = append(chain, ev.more[k].off)
		}
		slices.Reverse(chain[1:])
		start := len(derivs)
		for _, off := range chain {
			derivs = append(derivs, Derivation(tids[off:int(off)+n:int(off)+n]))
		}
		ans.Derivations = derivs[start:len(derivs):len(derivs)]
		res.answers[a] = ans
	}
}
