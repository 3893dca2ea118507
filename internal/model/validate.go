package model

import "fmt"

// Validate checks the structural and semantic well-formedness of the
// program:
//
//   - unique, non-empty array names; positive dimensions and element
//     sizes
//   - loop trip counts >= 1 and iterator names that do not shadow an
//     enclosing iterator
//   - access index arity matching the array rank
//   - index expressions referring only to in-scope iterators
//   - every access staying within the array bounds over the whole
//     iteration domain
//   - every referenced array registered with the program
//
// The reuse analysis and the simulators rely on these invariants, so
// they validate first (the flow does so once, in reuse.Analyze).
func (p *Program) Validate() error {
	if p == nil {
		return fmt.Errorf("model: nil program")
	}
	if p.Name == "" {
		return fmt.Errorf("model: program has no name")
	}
	if len(p.Blocks) == 0 {
		return fmt.Errorf("model: program %q has no blocks", p.Name)
	}
	// arrays maps each name to its registered array; an access is to a
	// registered array when the lookup of its name returns that very
	// pointer.
	arrays := make(map[string]*Array, len(p.Arrays))
	for _, a := range p.Arrays {
		if a.Name == "" {
			return fmt.Errorf("model: program %q contains an unnamed array", p.Name)
		}
		if arrays[a.Name] != nil {
			return fmt.Errorf("model: duplicate array name %q", a.Name)
		}
		arrays[a.Name] = a
		if len(a.Dims) == 0 {
			return fmt.Errorf("model: array %q has no dimensions", a.Name)
		}
		for i, d := range a.Dims {
			if d <= 0 {
				return fmt.Errorf("model: array %q dimension %d has extent %d", a.Name, i, d)
			}
		}
		if a.ElemSize <= 0 {
			return fmt.Errorf("model: array %q has element size %d", a.Name, a.ElemSize)
		}
	}
	// One iterator map serves every block: validateNodes removes each
	// loop's iterator on the way out, so it is empty between blocks.
	trips := make(map[string]int)
	blockNames := make(map[string]bool, len(p.Blocks))
	for bi, b := range p.Blocks {
		if b.Name == "" {
			return fmt.Errorf("model: block %d has no name", bi)
		}
		if blockNames[b.Name] {
			return fmt.Errorf("model: duplicate block name %q", b.Name)
		}
		blockNames[b.Name] = true
		if err := validateNodes(b.Body, b.Name, trips, arrays); err != nil {
			return err
		}
	}
	return nil
}

func validateNodes(nodes []Node, block string, trips map[string]int, arrays map[string]*Array) error {
	for _, n := range nodes {
		switch n := n.(type) {
		case *Loop:
			if n.Var == "" {
				return fmt.Errorf("model: block %q: loop with empty iterator name", block)
			}
			if _, exists := trips[n.Var]; exists {
				return fmt.Errorf("model: block %q: iterator %q shadows an enclosing iterator", block, n.Var)
			}
			if n.Trip < 1 {
				return fmt.Errorf("model: block %q: loop %q has trip count %d", block, n.Var, n.Trip)
			}
			trips[n.Var] = n.Trip
			if err := validateNodes(n.Body, block, trips, arrays); err != nil {
				return err
			}
			delete(trips, n.Var)
		case *Access:
			if err := validateAccess(n, block, trips, arrays); err != nil {
				return err
			}
		case *Compute:
			if n.Cycles < 0 {
				return fmt.Errorf("model: block %q: compute node with negative cycles %d", block, n.Cycles)
			}
		case nil:
			return fmt.Errorf("model: block %q: nil node", block)
		default:
			return fmt.Errorf("model: block %q: unknown node type %T", block, n)
		}
	}
	return nil
}

func validateAccess(acc *Access, block string, trips map[string]int, arrays map[string]*Array) error {
	if acc.Array == nil {
		return fmt.Errorf("model: block %q: access with nil array", block)
	}
	if arrays[acc.Array.Name] != acc.Array {
		return fmt.Errorf("model: block %q: access to unregistered array %q", block, acc.Array.Name)
	}
	if len(acc.Index) != acc.Array.Rank() {
		return fmt.Errorf("model: block %q: access to %q has %d index expressions, array rank is %d",
			block, acc.Array.Name, len(acc.Index), acc.Array.Rank())
	}
	for d, e := range acc.Index {
		for _, v := range e.Vars() {
			if _, ok := trips[v]; !ok {
				return fmt.Errorf("model: block %q: access to %q dimension %d uses out-of-scope iterator %q",
					block, acc.Array.Name, d, v)
			}
		}
		min, max := e.Range(trips)
		if min < 0 || max >= acc.Array.Dims[d] {
			return fmt.Errorf("model: block %q: access %s to %q dimension %d ranges [%d,%d], bounds are [0,%d)",
				block, e, acc.Array.Name, d, min, max, acc.Array.Dims[d])
		}
	}
	return nil
}
