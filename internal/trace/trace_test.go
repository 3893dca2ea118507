package trace

import (
	"errors"
	"fmt"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/model"
	"mhla/internal/progen"
)

// nest builds the two-block test program:
//
//	block 0: for i in 0..2 { for j in 0..1 { read A[i][j]; write B[j] } }
//	block 1: for k in 0..3 { read C[k] }
func nest(t *testing.T) *model.Program {
	t.Helper()
	a := &model.Array{Name: "A", Dims: []int{3, 2}, ElemSize: 4, Input: true}
	b := &model.Array{Name: "B", Dims: []int{2}, ElemSize: 2, Output: true}
	c := &model.Array{Name: "C", Dims: []int{4}, ElemSize: 1, Input: true, Output: true}
	p := &model.Program{
		Name:   "trace-nest",
		Arrays: []*model.Array{a, b, c},
		Blocks: []*model.Block{
			{Name: "b0", Body: []model.Node{
				&model.Loop{Var: "i", Trip: 3, Body: []model.Node{
					&model.Loop{Var: "j", Trip: 2, Body: []model.Node{
						&model.Access{Array: a, Kind: model.Read, Index: []model.Expr{model.Idx("i"), model.Idx("j")}},
						&model.Access{Array: b, Kind: model.Write, Index: []model.Expr{model.Idx("j")}},
					}},
				}},
			}},
			{Name: "b1", Body: []model.Node{
				&model.Loop{Var: "k", Trip: 4, Body: []model.Node{
					&model.Access{Array: c, Kind: model.Read, Index: []model.Expr{model.Idx("k")}},
				}},
			}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWalkOrder: the expanded strips yield every dynamic access in
// execution order with the right site, block, position and evaluated
// coordinates.
func TestWalkOrder(t *testing.T) {
	p := nest(t)
	type access struct {
		array  string
		block  int
		pos    int
		linear int64
	}
	var got []access
	for _, e := range stripEvents(t, p) {
		got = append(got, access{e.site.Array.Name, e.block, e.pos, e.linear})
	}
	var want []access
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			want = append(want,
				access{"A", 0, 0, int64(i*2 + j)},
				access{"B", 0, 1, int64(j)})
		}
	}
	for k := 0; k < 4; k++ {
		want = append(want, access{"C", 1, 2, int64(k)})
	}
	if len(got) != len(want) {
		t.Fatalf("walk yielded %d accesses, want %d", len(got), len(want))
	}
	if int64(len(got)) != p.TotalAccesses() {
		t.Fatalf("walk yielded %d accesses, TotalAccesses says %d", len(got), p.TotalAccesses())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestWalkEarlyStop: returning false stops the walk without an error.
func TestWalkEarlyStop(t *testing.T) {
	p := nest(t)
	n := 0
	err := WalkStrips(p, Options{}, func(s *Strip) bool {
		n++
		return n < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("walk yielded %d strips after early stop, want 2", n)
	}
}

// TestWalkLimit: the MaxAccesses guard fires up front, wraps ErrLimit
// and yields nothing.
func TestWalkLimit(t *testing.T) {
	p := nest(t)
	n := 0
	err := WalkStrips(p, Options{MaxAccesses: 3}, func(s *Strip) bool {
		n++
		return true
	})
	if err == nil {
		t.Fatal("walk over the access limit succeeded")
	}
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("limit error does not wrap ErrLimit: %v", err)
	}
	if n != 0 {
		t.Fatalf("limited walk yielded %d strips before erroring", n)
	}
}

// TestWalkNegativeLimit: a negative MaxAccesses is an error, not the
// default bound, and yields nothing.
func TestWalkNegativeLimit(t *testing.T) {
	n := 0
	err := WalkStrips(nest(t), Options{MaxAccesses: -1}, func(s *Strip) bool {
		n++
		return true
	})
	if err == nil || errors.Is(err, ErrLimit) {
		t.Fatalf("negative limit: err = %v, want a non-ErrLimit error", err)
	}
	if n != 0 {
		t.Fatalf("walk with a negative limit yielded %d strips", n)
	}
}

// TestWalkNilProgram: a nil program is an error, not a panic.
func TestWalkNilProgram(t *testing.T) {
	if err := WalkStrips(nil, Options{}, func(s *Strip) bool { return true }); err == nil {
		t.Fatal("nil program walked")
	}
}

// refAccess is one event of referenceWalk.
type refAccess struct {
	Site     *model.Access
	Block    int
	Position int
	Env      map[string]int
}

// linear is the reference row-major index: every dimension's index
// expression evaluated over the string-keyed valuation.
func (a *refAccess) linear() int64 {
	var idx int64
	for d, dim := range a.Site.Array.Dims {
		idx = idx*int64(dim) + int64(a.Site.Index[d].Eval(a.Env))
	}
	return idx
}

// referenceWalk is the map-keyed walk the strip lowering replaced,
// kept as its oracle: iterator values live in a map keyed by loop
// variable, positions come from a map keyed by site, and every index
// expression is evaluated per access.
func referenceWalk(p *model.Program, yield func(*refAccess)) {
	pos := make(map[*model.Access]int)
	for _, ref := range p.Accesses() {
		pos[ref.Access] = ref.Position
	}
	acc := &refAccess{Env: make(map[string]int)}
	var walk func(nodes []model.Node)
	walk = func(nodes []model.Node) {
		for _, n := range nodes {
			switch n := n.(type) {
			case *model.Loop:
				for i := 0; i < n.Trip; i++ {
					acc.Env[n.Var] = i
					walk(n.Body)
				}
				delete(acc.Env, n.Var)
			case *model.Access:
				acc.Site = n
				acc.Position = pos[n]
				yield(acc)
			}
		}
	}
	for bi, b := range p.Blocks {
		acc.Block = bi
		walk(b.Body)
	}
}

// event is one access as both walks report it: site, block, position,
// linear index and the enclosing iterator values, outermost first.
type event struct {
	site   *model.Access
	block  int
	pos    int
	linear int64
	iters  string
}

func referenceEvents(p *model.Program) []event {
	nests := make(map[int][]*model.Loop)
	for _, ref := range p.Accesses() {
		nests[ref.Position] = ref.Nest
	}
	var want []event
	referenceWalk(p, func(a *refAccess) {
		iters := make([]int, len(nests[a.Position]))
		for j, l := range nests[a.Position] {
			iters[j] = a.Env[l.Var]
		}
		want = append(want, event{a.Site, a.Block, a.Position, a.linear(), fmt.Sprint(iters)})
	})
	return want
}

// stripEvents expands WalkStrips into per-access events: iteration it
// of site s is element s.Linear + it*s.Step, under the strip's outer
// iterator values plus it for a leaf loop's own iterator.
func stripEvents(t *testing.T, p *model.Program) []event {
	t.Helper()
	var got []event
	err := WalkStrips(p, Options{MaxAccesses: 1 << 40}, func(s *Strip) bool {
		if !s.Leaf && (s.Trip != 1 || len(s.Sites) != 1) {
			t.Fatalf("lone-site strip with trip %d and %d sites", s.Trip, len(s.Sites))
		}
		iters := append([]int(nil), s.Iters...)
		for it := 0; it < s.Trip; it++ {
			if s.Leaf {
				iters[len(iters)-1] = it
			}
			for _, ss := range s.Sites {
				got = append(got, event{ss.Site, s.Block, ss.Position, ss.Linear + int64(it)*ss.Step, fmt.Sprint(iters)})
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkStripsAgainstReference asserts that the expanded strips equal
// referenceWalk event by event.
func checkStripsAgainstReference(t *testing.T, name string, p *model.Program) {
	t.Helper()
	got, want := stripEvents(t, p), referenceEvents(p)
	if len(got) != len(want) {
		t.Fatalf("%s: strips expand to %d accesses, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: access %d = %+v, reference %+v", name, i, got[i], want[i])
		}
	}
}

// stripCases builds a program exercising every strip shape:
//
//	block 0: for i in 0..2 {
//	           read X[i]                      // between loops: lone
//	           for j in 0..3 {                // leaf loop
//	             read A[i][1]                 // no term on j: step 0
//	             write D[i+j][j]              // two terms on j: step 5
//	           }
//	           for k in 0..1 { }              // empty: dropped
//	           read X[2-i]                    // between loops: lone
//	         }
//	block 1: read X[1]                        // outside any loop: lone
func stripCases(t *testing.T) *model.Program {
	t.Helper()
	x := &model.Array{Name: "X", Dims: []int{3}, ElemSize: 4, Input: true}
	a := &model.Array{Name: "A", Dims: []int{3, 2}, ElemSize: 2, Input: true}
	d := &model.Array{Name: "D", Dims: []int{6, 4}, ElemSize: 1, Output: true}
	p := &model.Program{
		Name:   "trace-strips",
		Arrays: []*model.Array{x, a, d},
		Blocks: []*model.Block{
			{Name: "b0", Body: []model.Node{
				&model.Loop{Var: "i", Trip: 3, Body: []model.Node{
					&model.Access{Array: x, Kind: model.Read, Index: []model.Expr{model.Idx("i")}},
					&model.Loop{Var: "j", Trip: 4, Body: []model.Node{
						&model.Access{Array: a, Kind: model.Read, Index: []model.Expr{model.Idx("i"), model.ConstExpr(1)}},
						&model.Compute{Cycles: 1},
						&model.Access{Array: d, Kind: model.Write, Index: []model.Expr{
							model.Affine(0, model.Term{Var: "i", Coef: 1}, model.Term{Var: "j", Coef: 1}), model.Idx("j")}},
					}},
					&model.Loop{Var: "k", Trip: 2, Body: []model.Node{&model.Compute{Cycles: 3}}},
					&model.Access{Array: x, Kind: model.Read, Index: []model.Expr{model.Affine(2, model.Term{Var: "i", Coef: -1})}},
				}},
			}},
			{Name: "b1", Body: []model.Node{
				&model.Access{Array: x, Kind: model.Read, Index: []model.Expr{model.ConstExpr(1)}},
			}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStripShapes: a leaf loop is one strip per entry with its trip
// count and per-site steps (0 without a term on its iterator, the
// merged coefficient with two), a site between or outside loops is a
// one-iteration strip, and an empty loop yields nothing.
func TestStripShapes(t *testing.T) {
	p := stripCases(t)
	type shape struct {
		block, trip int
		leaf        bool
		steps       string
	}
	var got []shape
	err := WalkStrips(p, Options{}, func(s *Strip) bool {
		var steps []int64
		for _, ss := range s.Sites {
			steps = append(steps, ss.Step)
		}
		got = append(got, shape{s.Block, s.Trip, s.Leaf, fmt.Sprint(steps)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []shape
	for i := 0; i < 3; i++ {
		want = append(want, shape{0, 1, false, "[0]"}, shape{0, 4, true, "[0 5]"}, shape{0, 1, false, "[0]"})
	}
	want = append(want, shape{1, 1, false, "[0]"})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("strips %v, want %v", got, want)
	}
	checkStripsAgainstReference(t, "strip cases", p)
}

// TestStripsMatchReference: expanding the strips reproduces the
// map-keyed reference walk on every generated scenario and on the nine
// applications at test scale.
func TestStripsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 220; seed++ {
		checkStripsAgainstReference(t, fmt.Sprintf("progen seed %d", seed), progen.Generate(seed).Program)
	}
	for _, app := range apps.All() {
		checkStripsAgainstReference(t, app.Name, app.Build(apps.Test))
	}
}
