package assign

import (
	"mhla/internal/lifetime"
	"mhla/internal/platform"
	"mhla/internal/workspace"
)

// Occupancy is the incremental form of Assignment.Fits shared by every
// search that changes an assignment one decision at a time: the greedy
// engine, the exact engines' searchState and the time-extension step.
// It keeps one lifetime.Tracker per bounded layer, so a move places or
// removes its lifetime objects and the capacity check reads maintained
// peaks in O(layers) instead of rebuilding every layer's profile.
//
// Tracker peaks equal the batch estimator's, so Fits agrees with
// Assignment.Fits whenever the placed objects are the assignment's
// Objects.
type Occupancy struct {
	plat *platform.Platform
	// trackers holds one tracker per bounded layer (nil for layers
	// with Capacity 0, which Assignment.Fits ignores).
	trackers []*lifetime.Tracker
}

// newOccupancy returns an empty occupancy for a program of nblocks
// top-level blocks.
func newOccupancy(plat *platform.Platform, nblocks int, inPlace bool) *Occupancy {
	o := &Occupancy{plat: plat, trackers: make([]*lifetime.Tracker, len(plat.Layers))}
	for i := range plat.Layers {
		if plat.Layers[i].Capacity > 0 {
			o.trackers[i] = lifetime.NewTracker(nblocks, inPlace)
		}
	}
	return o
}

// Occupancy returns the occupancy of the assignment as it stands:
// every bounded layer's tracker holds that layer's Objects. Changes
// made to the assignment afterwards must be mirrored with Place and
// Unplace.
func (a *Assignment) Occupancy() *Occupancy {
	o := newOccupancy(a.Platform, a.ws.NBlocks, a.InPlace)
	for layer, tr := range o.trackers {
		if tr == nil {
			continue
		}
		for _, obj := range a.Objects(layer) {
			tr.Place(obj)
		}
	}
	return o
}

// Place adds an object to a layer (a no-op on unbounded layers).
func (o *Occupancy) Place(layer int, obj lifetime.Object) {
	if tr := o.trackers[layer]; tr != nil {
		tr.Place(obj)
	}
}

// Unplace removes an object previously placed on a layer.
func (o *Occupancy) Unplace(layer int, obj lifetime.Object) {
	if tr := o.trackers[layer]; tr != nil {
		tr.Unplace(obj)
	}
}

// Fits reports whether every bounded layer's peak occupancy is within
// its capacity.
func (o *Occupancy) Fits() bool {
	for i, tr := range o.trackers {
		if tr != nil && tr.Peak() > o.plat.Layers[i].Capacity {
			return false
		}
	}
	return true
}

// moveArray moves array ai's lifetime object between two layers.
// Arrays the program never uses occupy nothing anywhere.
func (o *Occupancy) moveArray(ws *workspace.Workspace, ai, from, to int) {
	if !ws.ArrayUsed[ai] {
		return
	}
	o.Unplace(from, ws.ArrayObjs[ai])
	o.Place(to, ws.ArrayObjs[ai])
}
