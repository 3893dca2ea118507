// Package pareto provides the trade-off utilities of the MHLA
// exploration: given evaluated (size, energy, cycles) points, it
// extracts the non-dominated frontier the paper's "thorough trade-off
// exploration for different memory layer sizes" produces.
package pareto

import (
	"fmt"
	"sort"
	"strings"
)

// Point is one evaluated design point.
type Point struct {
	// Label identifies the point (e.g. the platform name).
	Label string
	// Size is the on-chip capacity in bytes (a design knob, reported
	// but not part of the dominance test).
	Size int64
	// Cycles and Energy are the minimized quantities.
	Cycles int64
	// Energy is in pJ.
	Energy float64
}

// Frontier returns the non-dominated subset of the points, sorted by
// ascending cycles (and descending energy along the frontier).
// Duplicate-cost points are kept once (the first by label order).
func Frontier(points []Point) []Point {
	sorted := append([]Point(nil), points...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Cycles != b.Cycles {
			return a.Cycles < b.Cycles
		}
		if a.Energy != b.Energy {
			return a.Energy < b.Energy
		}
		return a.Label < b.Label
	})
	var out []Point
	bestEnergy := 0.0
	for i, p := range sorted {
		if i > 0 && p.Cycles == sorted[i-1].Cycles && p.Energy == sorted[i-1].Energy {
			continue // exact duplicate cost
		}
		if len(out) > 0 && p.Energy >= bestEnergy {
			continue // dominated by an earlier (faster) point
		}
		out = append(out, p)
		bestEnergy = p.Energy
	}
	return out
}

// Render draws the frontier as a small ASCII table.
func Render(points []Point) string {
	if len(points) == 0 {
		return "(empty frontier)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %10s %14s %14s\n", "point", "size", "cycles", "energy(pJ)")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-16s %10d %14d %14.0f\n", p.Label, p.Size, p.Cycles, p.Energy)
	}
	return sb.String()
}
