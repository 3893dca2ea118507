package pareto

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFrontierSimple(t *testing.T) {
	pts := []Point{
		{Label: "a", Cycles: 100, Energy: 50},
		{Label: "b", Cycles: 80, Energy: 70},  // frontier
		{Label: "c", Cycles: 120, Energy: 40}, // frontier
		{Label: "d", Cycles: 110, Energy: 60}, // dominated by a
		{Label: "e", Cycles: 100, Energy: 50}, // duplicate of a
	}
	f := Frontier(pts)
	if len(f) != 3 {
		t.Fatalf("frontier = %v, want 3 points", f)
	}
	if f[0].Label != "b" || f[1].Label != "a" || f[2].Label != "c" {
		t.Errorf("frontier order = %v", f)
	}
}

// dominates reports whether p is at least as good as q in both
// minimized dimensions and strictly better in one: the dominance
// relation Frontier must respect.
func dominates(p, q Point) bool {
	if p.Cycles > q.Cycles || p.Energy > q.Energy {
		return false
	}
	return p.Cycles < q.Cycles || p.Energy < q.Energy
}

func TestDominates(t *testing.T) {
	a := Point{Cycles: 10, Energy: 10}
	cases := []struct {
		b    Point
		want bool
	}{
		{Point{Cycles: 10, Energy: 10}, false}, // equal: no strict edge
		{Point{Cycles: 11, Energy: 10}, true},
		{Point{Cycles: 10, Energy: 11}, true},
		{Point{Cycles: 9, Energy: 11}, false},
		{Point{Cycles: 11, Energy: 9}, false},
		{Point{Cycles: 12, Energy: 12}, true},
	}
	for _, c := range cases {
		if got := dominates(a, c.b); got != c.want {
			t.Errorf("dominates(%v) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestFrontierEmptyAndSingle(t *testing.T) {
	if f := Frontier(nil); len(f) != 0 {
		t.Errorf("Frontier(nil) = %v", f)
	}
	one := []Point{{Label: "x", Cycles: 1, Energy: 1}}
	if f := Frontier(one); len(f) != 1 || f[0].Label != "x" {
		t.Errorf("Frontier(single) = %v", f)
	}
}

func randPoints(r *rand.Rand) []Point {
	n := r.Intn(20)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			Label:  string(rune('a' + i)),
			Size:   int64(r.Intn(4096)),
			Cycles: int64(r.Intn(100)),
			Energy: float64(r.Intn(100)),
		}
	}
	return pts
}

func TestQuickFrontierLaws(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pts := randPoints(r)
		front := Frontier(pts)
		// 1. No point of the frontier dominates another.
		for i := range front {
			for j := range front {
				if i != j && dominates(front[i], front[j]) {
					return false
				}
			}
		}
		// 2. Every input point is dominated by or equal to some
		// frontier point.
		for _, p := range pts {
			ok := false
			for _, q := range front {
				if dominates(q, p) || (q.Cycles == p.Cycles && q.Energy == p.Energy) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		// 3. Idempotence.
		again := Frontier(front)
		if len(again) != len(front) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRender(t *testing.T) {
	s := Render([]Point{{Label: "l1-1024", Size: 1024, Cycles: 42, Energy: 7}})
	if !strings.Contains(s, "l1-1024") || !strings.Contains(s, "42") {
		t.Errorf("Render = %q", s)
	}
	if Render(nil) != "(empty frontier)\n" {
		t.Error("empty render broken")
	}
}
