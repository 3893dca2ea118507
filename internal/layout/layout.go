// Package layout performs the in-place mapping step that follows
// layer assignment: it places every object assigned to a bounded
// layer (arrays homed there, selected copies, time-extension buffers)
// at a concrete address range, reusing addresses across objects with
// disjoint lifetimes.
//
// The assignment search uses the peak-occupancy estimate of
// internal/lifetime as its capacity test; peak occupancy is a lower
// bound for any placement, but a concrete placement can need more
// because address ranges cannot be compacted over time (the classic
// 2-D strip-packing gap). This package computes an actual placement
// with first-fit-decreasing over the (address x block-time) plane and
// reports the realized height and fragmentation, turning the
// estimator's optimism into a measurable quantity.
package layout

import (
	"fmt"
	"sort"
	"strings"

	"mhla/internal/assign"
	"mhla/internal/lifetime"
)

// Placement is one object's assigned address range.
type Placement struct {
	// Object is the placed space consumer.
	Object lifetime.Object
	// Offset is the byte address within the layer.
	Offset int64
}

// End returns the first byte past the object.
func (p Placement) End() int64 { return p.Offset + p.Object.Bytes }

// LayerMap is the concrete memory map of one layer.
type LayerMap struct {
	// Layer is the layer index.
	Layer int
	// Name is the layer name.
	Name string
	// Capacity is the layer capacity in bytes.
	Capacity int64
	// Placements lists the placed objects (by descending size, the
	// placement order).
	Placements []Placement
	// Height is the highest used address (the capacity a concrete
	// allocation needs).
	Height int64
	// Peak is the lifetime-aware lower bound (the estimator's value).
	Peak int64
}

// Fragmentation returns Height-Peak: the bytes lost to address
// assignment beyond the theoretical lower bound.
func (m *LayerMap) Fragmentation() int64 { return m.Height - m.Peak }

// Map computes the memory maps of every bounded layer of an
// assignment using first-fit-decreasing: objects are sorted by
// descending size (ties by ID) and each is placed at the lowest
// offset where it fits next to all already-placed objects whose
// lifetimes overlap.
func Map(a *assign.Assignment) ([]*LayerMap, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("layout: %w", err)
	}
	var maps []*LayerMap
	for li := range a.Platform.Layers {
		if a.Platform.Layers[li].Capacity == 0 {
			continue // background memory needs no map
		}
		objs := a.Objects(li)
		m := &LayerMap{
			Layer:    li,
			Name:     a.Platform.Layers[li].Name,
			Capacity: a.Platform.Layers[li].Capacity,
			Peak:     a.PeakUsage(li),
		}
		place(m, objs, a.InPlace)
		maps = append(maps, m)
	}
	return maps, nil
}

// place runs first-fit-decreasing on one layer.
func place(m *LayerMap, objs []lifetime.Object, inPlace bool) {
	sorted := append([]lifetime.Object(nil), objs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Bytes != sorted[j].Bytes {
			return sorted[i].Bytes > sorted[j].Bytes
		}
		return sorted[i].ID < sorted[j].ID
	})
	for _, obj := range sorted {
		offset := int64(0)
		for {
			conflict, next := firstConflict(m.Placements, obj, offset, inPlace)
			if !conflict {
				break
			}
			offset = next
		}
		m.Placements = append(m.Placements, Placement{Object: obj, Offset: offset})
		if end := offset + obj.Bytes; end > m.Height {
			m.Height = end
		}
	}
}

// firstConflict finds a placed object that overlaps candidate obj at
// the given offset in both address and lifetime; it returns the next
// offset to try (the conflicting object's end).
func firstConflict(placed []Placement, obj lifetime.Object, offset int64, inPlace bool) (bool, int64) {
	end := offset + obj.Bytes
	bestNext := int64(-1)
	conflict := false
	for _, p := range placed {
		if p.Offset >= end || p.End() <= offset {
			continue // no address overlap
		}
		if inPlace && (p.Object.End < obj.Start || p.Object.Start > obj.End) {
			continue // disjoint lifetimes may share addresses
		}
		conflict = true
		if p.End() > bestNext {
			bestNext = p.End()
		}
	}
	return conflict, bestNext
}

// Validate checks a computed map: no two placements may overlap in
// both address range and lifetime, and everything must sit inside the
// layer.
func (m *LayerMap) Validate() error {
	for i, p := range m.Placements {
		if p.Offset < 0 || p.End() > m.Capacity {
			return fmt.Errorf("layout: %s: object %s [%d,%d) outside capacity %d",
				m.Name, p.Object.ID, p.Offset, p.End(), m.Capacity)
		}
		for _, q := range m.Placements[i+1:] {
			addrOverlap := p.Offset < q.End() && q.Offset < p.End()
			timeOverlap := p.Object.Start <= q.Object.End && q.Object.Start <= p.Object.End
			if addrOverlap && timeOverlap {
				return fmt.Errorf("layout: %s: %s and %s overlap at [%d,%d)x[%d,%d]",
					m.Name, p.Object.ID, q.Object.ID,
					max(p.Offset, q.Offset), min(p.End(), q.End()),
					max(p.Object.Start, q.Object.Start), min(p.Object.End, q.Object.End))
			}
		}
	}
	return nil
}

// Fits reports whether the realized height is within capacity.
func (m *LayerMap) Fits() bool { return m.Height <= m.Capacity }

// String renders the memory map.
func (m *LayerMap) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "memory map of %s (capacity %dB, used %dB, peak bound %dB, fragmentation %dB)\n",
		m.Name, m.Capacity, m.Height, m.Peak, m.Fragmentation())
	placements := append([]Placement(nil), m.Placements...)
	sort.Slice(placements, func(i, j int) bool {
		if placements[i].Offset != placements[j].Offset {
			return placements[i].Offset < placements[j].Offset
		}
		return placements[i].Object.ID < placements[j].Object.ID
	})
	for _, p := range placements {
		fmt.Fprintf(&sb, "  [%6d,%6d) %-28s blocks %d..%d\n",
			p.Offset, p.End(), p.Object.ID, p.Object.Start, p.Object.End)
	}
	return sb.String()
}
