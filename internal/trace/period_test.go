package trace

import (
	"fmt"
	"math"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/model"
	"mhla/internal/progen"
)

// periodCases builds a program exercising every period shape:
//
//	block 0: for y in 0..2 {                  // period: strips only
//	           for k in 0..3 { read A[y][k] } // leaf strip, shift 4
//	           write B[2y]                    // lone site, shift 2
//	           write B[1]                     // lone site, shift 0
//	         }
//	block 1: for i in 0..1 {                  // nests a loop: no period
//	           for j in 0..2 {                // period
//	             for k in 0..1 { read A[i][3-j-k] } // shift -1
//	           }
//	           read B[i]                      // strip of no period
//	         }
//	block 2: for k in 0..2 { read B[k] }     // leaf loop alone: no period
//	         read B[0]                        // outside any loop
func periodCases(t *testing.T) *model.Program {
	t.Helper()
	a := &model.Array{Name: "A", Dims: []int{3, 4}, ElemSize: 2, Input: true}
	b := &model.Array{Name: "B", Dims: []int{6}, ElemSize: 1, Output: true}
	p := &model.Program{
		Name:   "trace-periods",
		Arrays: []*model.Array{a, b},
		Blocks: []*model.Block{
			{Name: "b0", Body: []model.Node{
				&model.Loop{Var: "y", Trip: 3, Body: []model.Node{
					&model.Loop{Var: "k", Trip: 4, Body: []model.Node{
						&model.Access{Array: a, Kind: model.Read, Index: []model.Expr{model.Idx("y"), model.Idx("k")}},
					}},
					&model.Access{Array: b, Kind: model.Write, Index: []model.Expr{model.IdxC(2, "y")}},
					&model.Access{Array: b, Kind: model.Write, Index: []model.Expr{model.ConstExpr(1)}},
				}},
			}},
			{Name: "b1", Body: []model.Node{
				&model.Loop{Var: "i", Trip: 2, Body: []model.Node{
					&model.Loop{Var: "j", Trip: 3, Body: []model.Node{
						&model.Loop{Var: "k", Trip: 2, Body: []model.Node{
							&model.Access{Array: a, Kind: model.Read, Index: []model.Expr{model.Idx("i"),
								model.Affine(3, model.Term{Var: "j", Coef: -1}, model.Term{Var: "k", Coef: -1})}},
						}},
					}},
					&model.Access{Array: b, Kind: model.Read, Index: []model.Expr{model.Idx("i")}},
				}},
			}},
			{Name: "b2", Body: []model.Node{
				&model.Loop{Var: "k", Trip: 3, Body: []model.Node{
					&model.Access{Array: b, Kind: model.Read, Index: []model.Expr{model.Idx("k")}},
				}},
				&model.Access{Array: b, Kind: model.Read, Index: []model.Expr{model.ConstExpr(0)}},
			}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPeriodShapes: the strips of a loop whose body holds only strips
// share one Period with the loop's trip count and the body in document
// order, each site's Shift is its coefficient on the loop's iterator,
// and a strip of a loop that also nests a loop, of a leaf loop directly
// in a block or outside any loop has no Period.
func TestPeriodShapes(t *testing.T) {
	type shape struct {
		block, trip, iter, body int // body: the strip's index in Period.Strips (-1: no Period)
		shifts                  string
	}
	var got []shape
	err := WalkStrips(periodCases(t), Options{}, func(s *Strip) bool {
		sh := shape{block: s.Block, body: -1}
		var shifts []int64
		for _, ss := range s.Sites {
			shifts = append(shifts, ss.Shift)
		}
		sh.shifts = fmt.Sprint(shifts)
		if p := s.Period; p != nil {
			sh.trip, sh.iter = p.Trip, p.Iter
			for i, ps := range p.Strips {
				if ps == s {
					sh.body = i
				}
			}
		}
		got = append(got, sh)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []shape
	for y := 0; y < 3; y++ {
		want = append(want, shape{0, 3, y, 0, "[4]"}, shape{0, 3, y, 1, "[2]"}, shape{0, 3, y, 2, "[0]"})
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			want = append(want, shape{1, 3, j, 0, "[-1]"})
		}
		want = append(want, shape{1, 0, 0, -1, "[0]"})
	}
	want = append(want, shape{2, 0, 0, -1, "[0]"}, shape{2, 0, 0, -1, "[0]"})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("period shapes\n got %v\nwant %v", got, want)
	}
}

// checkPeriods walks p plainly and requires of every period: the
// strips of one iteration are yielded as Period.Strips in order, Iter
// counts 0..Trip-1 within each entry, and each site's Linear moves by
// its Shift from one iteration to the next.
func checkPeriods(t *testing.T, name string, p *model.Program) {
	t.Helper()
	var cur *Period
	next := 0                      // index in cur.Strips of the next strip expected
	prev := map[*StripSite]int64{} // Linear at the previous iteration of the entry
	err := WalkStrips(p, Options{MaxAccesses: 1 << 40}, func(s *Strip) bool {
		pr := s.Period
		if pr == nil {
			if cur != nil && next != 0 {
				t.Fatalf("%s: a strip of no period interrupts an iteration", name)
			}
			for j := range s.Sites {
				if s.Sites[j].Shift != 0 {
					t.Fatalf("%s: a strip of no period has shift %d", name, s.Sites[j].Shift)
				}
			}
			return true
		}
		if pr != cur {
			if next != 0 || pr.Iter != 0 {
				t.Fatalf("%s: a period entry starts at strip %d, iteration %d", name, next, pr.Iter)
			}
			cur = pr
		}
		if pr.Strips[next] != s {
			t.Fatalf("%s: iteration %d yields a strip other than body strip %d", name, pr.Iter, next)
		}
		if pr.Iter >= pr.Trip {
			t.Fatalf("%s: iteration %d of %d", name, pr.Iter, pr.Trip)
		}
		for j := range s.Sites {
			ss := &s.Sites[j]
			if last, ok := prev[ss]; ok && pr.Iter > 0 && ss.Linear-last != ss.Shift {
				t.Fatalf("%s: iteration %d moves a site by %d, shift %d", name, pr.Iter, ss.Linear-last, ss.Shift)
			}
			prev[ss] = ss.Linear
		}
		if next++; next == len(pr.Strips) {
			next = 0
			if pr.Iter == pr.Trip-1 {
				cur = nil
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPeriodsMatchWalk checks the Period metadata of every generated
// scenario and of the nine applications at test scale.
func TestPeriodsMatchWalk(t *testing.T) {
	checkPeriods(t, "period cases", periodCases(t))
	for seed := int64(0); seed < 220; seed++ {
		checkPeriods(t, fmt.Sprintf("progen seed %d", seed), progen.Generate(seed).Program)
	}
	for _, app := range apps.All() {
		checkPeriods(t, app.Name, app.Build(apps.Test))
	}
}

// yielded is one strip as a walk yields it: its block, trip count and
// iterator values, its sites' linear indices, and its period iteration
// (-1 without a period).
type yielded struct {
	block, trip, iter int
	iters, linear     string
}

func yieldOf(s *Strip) yielded {
	y := yielded{block: s.Block, trip: s.Trip, iter: -1, iters: fmt.Sprint(s.Iters)}
	if s.Leaf {
		y.iters = fmt.Sprint(s.Iters[:len(s.Iters)-1]) // the leaf's own slot is undefined
	}
	lin := make([]int64, len(s.Sites))
	for j := range s.Sites {
		lin[j] = s.Sites[j].Linear
	}
	y.linear = fmt.Sprint(lin)
	if s.Period != nil {
		y.iter = s.Period.Iter
	}
	return y
}

// skipRule is a consumer's skip decision for iteration iter of the
// entry-th period entry of a walk: a mix of 0, small skips, skips past
// the last iteration, the largest int and negative values.
func skipRule(entry, iter int) int {
	switch h := (entry*7 + iter*13) % 11; h {
	case 0:
		return math.MaxInt
	case 1:
		return -3
	case 2:
		return 1 << 20
	default:
		return h % 4
	}
}

// checkSkipWalk requires a walk whose consumer sets Period.Skip by
// skipRule to yield exactly the strips the plain walk yields for the
// iterations it does not skip, with the same Block, Iters and Linear,
// and never an iteration at or past the period's Trip.
func checkSkipWalk(t *testing.T, name string, p *model.Program) {
	t.Helper()
	// The plain walk, each period iteration's strips kept only when the
	// iterator the skipping walk keeps reaches it.
	var want []yielded
	entry, keep := -1, 0 // keep: the next iteration the skipping walk runs
	err := WalkStrips(p, Options{MaxAccesses: 1 << 40}, func(s *Strip) bool {
		pr := s.Period
		if pr == nil {
			want = append(want, yieldOf(s))
			return true
		}
		if s == pr.Strips[0] && pr.Iter == 0 {
			entry, keep = entry+1, 0
		}
		if pr.Iter != keep {
			return true
		}
		want = append(want, yieldOf(s))
		if s == pr.Strips[len(pr.Strips)-1] {
			keep += 1 + max(0, min(skipRule(entry, pr.Iter), pr.Trip))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []yielded
	entry = -1
	err = WalkStrips(p, Options{MaxAccesses: 1 << 40}, func(s *Strip) bool {
		got = append(got, yieldOf(s))
		pr := s.Period
		if pr == nil {
			return true
		}
		if pr.Iter >= pr.Trip || pr.Skip != 0 {
			t.Fatalf("%s: iteration %d of %d yielded with Skip %d", name, pr.Iter, pr.Trip, pr.Skip)
		}
		if s == pr.Strips[0] && pr.Iter == 0 {
			entry++
		}
		if s == pr.Strips[len(pr.Strips)-1] {
			pr.Skip = skipRule(entry, pr.Iter)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: the skipping walk yields %d strips, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: strip %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// TestWalkSkip: a consumer that skips period iterations sees exactly
// the strips of the iterations it keeps; a Skip past the last
// iteration ends the loop and a negative one counts as 0.
func TestWalkSkip(t *testing.T) {
	checkSkipWalk(t, "period cases", periodCases(t))
	checkSkipWalk(t, "strip cases", stripCases(t))
	for seed := int64(0); seed < 220; seed++ {
		checkSkipWalk(t, fmt.Sprintf("progen seed %d", seed), progen.Generate(seed).Program)
	}
	for _, app := range apps.All() {
		checkSkipWalk(t, app.Name, app.Build(apps.Test))
	}
}

// TestWalkAllocsIndependentOfTripCounts: a walk allocates per site and
// per loop, never per strip or period iteration, whether or not the
// consumer skips: the same program structure allocates the same at test
// and at paper scale.
func TestWalkAllocsIndependentOfTripCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	for _, name := range []string{"durbin", "qsdpcm", "voice"} {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, skip := range []int{0, 3} {
			var allocs [2]float64
			for i, scale := range []apps.Scale{apps.Test, apps.Paper} {
				p := app.Build(scale)
				allocs[i] = testing.AllocsPerRun(2, func() {
					err := WalkStrips(p, Options{MaxAccesses: 1 << 40}, func(s *Strip) bool {
						if pr := s.Period; pr != nil && s == pr.Strips[len(pr.Strips)-1] {
							pr.Skip = skip
						}
						return true
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
			if allocs[0] != allocs[1] {
				t.Errorf("%s, skip %d: %v allocations at test scale, %v at paper scale", name, skip, allocs[0], allocs[1])
			}
		}
	}
}
