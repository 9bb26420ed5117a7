package cq

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strconv"
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

// Answer is a snapshot of one view tuple: its head tuple together with
// every derivation producing it. For key-preserving queries each answer
// has exactly one derivation (the keys in the head pin down every joined
// base tuple); for general queries there may be several. Results do not
// store answers; Result.Answer builds one on demand.
type Answer struct {
	Tuple       relation.Tuple
	Derivations []Derivation
}

// Result is the materialized result of evaluating a query: Q(D) plus
// provenance, stored in columns. Answers are numbered from 0 in
// first-derived order. Their derivations lie back to back in one array,
// each as wide as the query body, answer after answer and in derivation
// order within an answer. Head values are not stored: they are read
// through the answer's first derivation.
type Result struct {
	Query *Query
	// DB is the instance the query was evaluated over; the derivations
	// hold its tuple IDs.
	DB *relation.Instance
	// head[i] is where head position i is read in a derivation: the body
	// atom and term position binding its variable.
	head  []source
	width int // body length
	tids  []relation.TID
	// starts[i] is the number of derivations before answer i's, with a
	// last entry for the total. It is nil when every answer has exactly
	// one derivation, as for key-preserving queries: answer i's is then
	// derivation i.
	starts []int32
	// index is an open-addressing table of answer positions plus one (0
	// marks a free slot), probed from the hash of a head tuple's
	// encoding; its size is a power of two at least twice the answers.
	index []int32
}

// source locates a value in a derivation: body atom and term position.
type source struct{ atom, pos int }

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
func (r *Result) NumAnswers() int {
	if r.starts != nil {
		return len(r.starts) - 1
	}
	return len(r.tids) / r.width
}

// TotalDerivations returns the number of derivations of all answers.
func (r *Result) TotalDerivations() int { return len(r.tids) / r.width }

// firstDerivation returns the number of the derivations before answer
// i's.
func (r *Result) firstDerivation(i int) int {
	if r.starts != nil {
		return int(r.starts[i])
	}
	return i
}

// NumDerivations returns the number of derivations of answer i.
func (r *Result) NumDerivations(i int) int {
	if r.starts != nil {
		return int(r.starts[i+1] - r.starts[i])
	}
	return 1
}

// Derivation returns derivation k of answer i. It shares the result's
// storage and must not be mutated; its capacity is capped, so appending
// to it copies.
func (r *Result) Derivation(i, k int) Derivation {
	off := (r.firstDerivation(i) + k) * r.width
	return Derivation(r.tids[off : off+r.width : off+r.width])
}

// HeadValue returns position pos of answer i's head tuple.
func (r *Result) HeadValue(i, pos int) relation.Value {
	src := r.head[pos]
	return r.DB.ByID(r.tids[r.firstDerivation(i)*r.width+src.atom]).Tuple[src.pos]
}

// Head returns answer i's head tuple, freshly allocated.
func (r *Result) Head(i int) relation.Tuple {
	t := make(relation.Tuple, len(r.head))
	for pos := range t {
		t[pos] = r.HeadValue(i, pos)
	}
	return t
}

// sameHead reports whether answer i's head tuple is t.
func (r *Result) sameHead(i int, t relation.Tuple) bool {
	if len(t) != len(r.head) {
		return false
	}
	for pos, v := range t {
		if r.HeadValue(i, pos) != v {
			return false
		}
	}
	return true
}

// Position returns the number of the answer with the given head tuple.
func (r *Result) Position(t relation.Tuple) (int, bool) {
	var buf [128]byte
	h := maphash.Bytes(hashSeed, t.AppendEncode(buf[:0]))
	i := r.find(h, func(i int32) bool { return r.sameHead(int(i), t) })
	return int(i), i >= 0
}

// Contains reports whether the head tuple is an answer.
func (r *Result) Contains(t relation.Tuple) bool {
	_, ok := r.Position(t)
	return ok
}

// Answer returns a snapshot of answer i; the derivations share the
// result's storage. It allocates, so the solve path reads the result
// through the positional accessors instead.
func (r *Result) Answer(i int) Answer {
	a := Answer{Tuple: r.Head(i), Derivations: make([]Derivation, r.NumDerivations(i))}
	for k := range a.Derivations {
		a.Derivations[k] = r.Derivation(i, k)
	}
	return a
}

// Answers returns a snapshot of every answer in first-derived order,
// built on each call; see Answer.
func (r *Result) Answers() []Answer {
	out := make([]Answer, r.NumAnswers())
	for i := range out {
		out[i] = r.Answer(i)
	}
	return out
}

// Lookup returns a snapshot of the answer with the given head tuple, if
// present; see Answer.
func (r *Result) Lookup(t relation.Tuple) (Answer, bool) {
	i, ok := r.Position(t)
	if !ok {
		return Answer{}, false
	}
	return r.Answer(i), true
}

// Tuples returns the answer tuples in first-derived order.
func (r *Result) Tuples() []relation.Tuple {
	out := make([]relation.Tuple, r.NumAnswers())
	for i := range out {
		out[i] = r.Head(i)
	}
	return out
}

// String renders the result sorted, for golden tests.
func (r *Result) String() string {
	lines := make([]string, r.NumAnswers())
	for i := range lines {
		lines[i] = r.Head(i).String()
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
		res: &Result{Query: q, DB: db, width: len(q.Body)},
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
	vals       []relation.Value
	rels       []*relation.Relation // per body atom
	steps      []planStep
	indexes    map[string]*relation.Index // keyed by relation + positions
	derivation Derivation                 // per original body position
	key        relation.Tuple
	headBuf    relation.Tuple
	encBuf     []byte
	// tids holds the matches' derivations back to back, in emission
	// order.
	tids []relation.TID
}

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
	// Validate admits only variables in the head.
	ev.res.head = make([]source, len(ev.q.Head))
	for i, t := range ev.q.Head {
		ev.res.head[i] = binder[vars[t.Var]]
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
	b := []byte(rel)
	for _, p := range positions {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p), 10)
	}
	return string(b)
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

// emit records the current complete match. The join visits every
// assignment of tuples to atoms once, so every match is a new derivation.
func (ev *evaluator) emit() {
	ev.tids = append(ev.tids, ev.derivation...)
}

// headHash returns the hash of derivation d's head tuple, which it leaves
// in headBuf.
func (ev *evaluator) headHash(d Derivation) uint64 {
	for i, src := range ev.res.head {
		ev.headBuf[i] = ev.rels[src.atom].Tuple(d[src.atom])[src.pos]
	}
	ev.encBuf = ev.headBuf.AppendEncode(ev.encBuf[:0])
	return maphash.Bytes(hashSeed, ev.encBuf)
}

// finish numbers the answers in first-derived order, filing each head in
// the index once, and stores the derivations in an exact-size array,
// grouped by answer when some answer has several.
func (ev *evaluator) finish() {
	res := ev.res
	w := res.width
	nd := len(ev.tids) / w
	derivation := func(k int) Derivation { return ev.tids[k*w : (k+1)*w] }
	// Sized for one answer per derivation, the index never grows.
	res.index = make([]int32, indexSize(nd))
	// Until some answer has a second derivation, answer a's is derivation
	// a; from then on owner[k] is derivation k's answer and first[a]
	// answer a's first derivation.
	var owner, first []int32
	answers := int32(0)
	for k := range nd {
		h := ev.headHash(derivation(k))
		a := res.find(h, func(a int32) bool {
			if first != nil {
				a = first[a]
			}
			d := derivation(int(a))
			for i, src := range res.head {
				if ev.rels[src.atom].Tuple(d[src.atom])[src.pos] != ev.headBuf[i] {
					return false
				}
			}
			return true
		})
		switch {
		case a < 0:
			a = answers
			answers++
			res.insert(h, a)
			if owner != nil {
				first = append(first, int32(k))
			}
		case owner == nil:
			owner, first = iota(k), iota(int(answers))
		}
		if owner != nil {
			owner = append(owner, a)
		}
	}
	if owner == nil {
		res.tids = slices.Clone(ev.tids)
		return
	}
	res.starts = make([]int32, answers+1)
	for _, a := range owner {
		res.starts[a+1]++
	}
	for a := range answers {
		res.starts[a+1] += res.starts[a]
	}
	next := slices.Clone(res.starts[:answers])
	res.tids = make([]relation.TID, len(ev.tids))
	for k, a := range owner {
		copy(res.tids[int(next[a])*w:], derivation(k))
		next[a]++
	}
	// Refile the heads in an index sized for the answers.
	res.index = make([]int32, indexSize(int(answers)))
	for a := range int(answers) {
		res.insert(ev.headHash(res.Derivation(a, 0)), int32(a))
	}
}

// indexSize returns the answer index size for n answers: a power of two,
// at least 16 and at least 2n.
func indexSize(n int) int {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return size
}

// iota returns 0, 1, ..., n-1.
func iota(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
