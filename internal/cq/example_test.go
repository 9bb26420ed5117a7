package cq_test

import (
	"fmt"

	"delprop/internal/cq"
	"delprop/internal/relation"
)

// ExampleParse shows the datalog syntax accepted by the parser.
func ExampleParse() {
	q, err := cq.Parse("Q3(x, z) :- T1(x, y), T2(y, z, w).")
	if err != nil {
		panic(err)
	}
	fmt.Println(q)
	fmt.Println("arity:", q.Arity(), "existential:", q.ExistentialVars())
	// Output:
	// Q3(x,z) :- T1(x,y), T2(y,z,w)
	// arity: 2 existential: [y w]
}

// ExampleEvaluate evaluates a join with provenance.
func ExampleEvaluate() {
	db := relation.NewInstance(
		relation.MustSchema("E", []string{"src", "dst"}, []int{0, 1}),
	)
	db.MustInsert("E", "a", "b")
	db.MustInsert("E", "b", "c")
	q := cq.MustParse("Path(x, y, z) :- E(x, y), E(y, z)")
	res, err := cq.Evaluate(q, db)
	if err != nil {
		panic(err)
	}
	fmt.Println(res)
	ans, _ := res.Lookup(relation.Tuple{"a", "b", "c"})
	fmt.Println("join path:", ans.Derivations[0].Format(db))
	// Output:
	// Path(D) = {(a,b,c)}
	// join path: E(a,b) ⋈ E(b,c)
}

// ExampleQuery_IsKeyPreserving checks the paper's central property.
func ExampleQuery_IsKeyPreserving() {
	schemas := cq.SchemaMap{
		"T1": relation.MustSchema("T1", []string{"AuName", "Journal"}, []int{0, 1}),
		"T2": relation.MustSchema("T2", []string{"Journal", "Topic", "Papers"}, []int{0, 1}),
	}
	q3 := cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")
	q4 := cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)")
	kp3, _ := q3.IsKeyPreserving(schemas)
	kp4, _ := q4.IsKeyPreserving(schemas)
	fmt.Println("Q3 key-preserving:", kp3)
	fmt.Println("Q4 key-preserving:", kp4)
	// Output:
	// Q3 key-preserving: false
	// Q4 key-preserving: true
}

// ExampleMinimize computes the Chandra–Merlin core of a query.
func ExampleMinimize() {
	q := cq.MustParse("Q(x) :- R(x, y), R(x, z)")
	fmt.Println(cq.Minimize(q))
	// Output: Q(x) :- R(x,z)
}
