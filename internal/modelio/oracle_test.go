package modelio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/progen"
)

// encodeProgramOracle is the reflection encoder appendProgram replaced:
// the programJSON tree rendered by json.MarshalIndent. It defines the
// canonical bytes.
func encodeProgramOracle(p *model.Program) ([]byte, error) {
	pj := programJSON{Name: p.Name}
	for _, a := range p.Arrays {
		pj.Arrays = append(pj.Arrays, arrayJSON{
			Name: a.Name, ElemSize: a.ElemSize, Dims: a.Dims,
			Input: a.Input, Output: a.Output,
		})
	}
	for _, b := range p.Blocks {
		body, err := encodeNodesOracle(b.Body)
		if err != nil {
			return nil, fmt.Errorf("modelio: block %q: %w", b.Name, err)
		}
		pj.Blocks = append(pj.Blocks, blockJSON{Name: b.Name, Body: body})
	}
	return json.MarshalIndent(pj, "", "  ")
}

func encodeNodesOracle(nodes []model.Node) ([]nodeJSON, error) {
	out := make([]nodeJSON, 0, len(nodes))
	for _, n := range nodes {
		switch n := n.(type) {
		case *model.Loop:
			body, err := encodeNodesOracle(n.Body)
			if err != nil {
				return nil, err
			}
			out = append(out, nodeJSON{Loop: &loopJSON{Var: n.Var, Trip: n.Trip, Body: body}})
		case *model.Access:
			aj := &accessJSON{Array: n.Array.Name}
			for _, e := range n.Index {
				ej := exprJSON{Const: e.Const}
				for _, t := range e.Terms {
					ej.Terms = append(ej.Terms, termJSON{Var: t.Var, Coef: t.Coef})
				}
				aj.Index = append(aj.Index, ej)
			}
			if n.Kind == model.Read {
				out = append(out, nodeJSON{Load: aj})
			} else {
				out = append(out, nodeJSON{Store: aj})
			}
		case *model.Compute:
			c := n.Cycles
			out = append(out, nodeJSON{Compute: &c})
		default:
			return nil, fmt.Errorf("unknown node type %T", n)
		}
	}
	return out, nil
}

// decodeProgramReference is the encoding/json decode the scanner must
// agree with: json.Unmarshal into the programJSON tree, then the model
// build and validation.
func decodeProgramReference(data []byte) (*model.Program, error) {
	p, err := unmarshalProgram(data)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	return p, nil
}

// decodePlatformReference is the encoding/json platform decode.
func decodePlatformReference(data []byte) (*platform.Platform, error) {
	var p platform.Platform
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	return &p, nil
}

// oraclePrograms returns progen seeds 0–599 and the nine apps at both
// scales.
func oraclePrograms() []*model.Program {
	var ps []*model.Program
	for seed := int64(0); seed < 600; seed++ {
		ps = append(ps, progen.Generate(seed).Program)
	}
	for _, app := range apps.All() {
		ps = append(ps, app.Build(apps.Test), app.Build(apps.Paper))
	}
	return ps
}

// TestEncodeProgramMatchesOracle: the direct writer renders exactly the
// MarshalIndent bytes.
func TestEncodeProgramMatchesOracle(t *testing.T) {
	for _, p := range oraclePrograms() {
		checkEncodeOracle(t, p)
	}
}

// TestEncodeProgramMatchesOracleEdgeCases covers the shapes the
// generators never build: empty lists, nil versus empty slices, zero
// and extreme integers, names that need escaping, and an expression
// with neither constant nor terms.
func TestEncodeProgramMatchesOracleEdgeCases(t *testing.T) {
	a := &model.Array{Name: "a<&>\"\\\n\x01é\xff ", ElemSize: -3, Dims: []int{}, Input: true}
	b := &model.Array{Name: "b", ElemSize: 1 << 62, Dims: []int{-1, 0, 7}, Output: true}
	c := &model.Array{Name: "", Dims: nil, Input: true, Output: true}
	access := func(arr *model.Array, kind model.AccessKind, index ...model.Expr) *model.Access {
		return &model.Access{Array: arr, Kind: kind, Index: index}
	}
	cases := []*model.Program{
		{},
		{Name: "empty-lists", Arrays: []*model.Array{}, Blocks: []*model.Block{}},
		{Name: "x", Arrays: []*model.Array{a, b, c}, Blocks: []*model.Block{
			{Name: "nil-body"},
			{Name: "empty-body", Body: []model.Node{}},
			{Name: "mixed\t", Body: []model.Node{
				&model.Compute{Cycles: -1 << 63},
				&model.Loop{Var: "i", Trip: 0},
				&model.Loop{Var: "j", Trip: -5, Body: []model.Node{
					access(a, model.Write),
					access(b, model.Read, model.Expr{}, model.Expr{Const: -7},
						model.Expr{Terms: []model.Term{}}, model.Expr{Const: 3, Terms: []model.Term{{Var: "j", Coef: -2}, {Var: "&", Coef: 0}}}),
					&model.Loop{Var: "k", Trip: 1, Body: []model.Node{&model.Compute{}}},
				}},
				access(c, model.AccessKind(7), model.Expr{Terms: []model.Term{{Var: "i", Coef: 1 << 40}}}),
			}},
		}},
	}
	for _, p := range cases {
		checkEncodeOracle(t, p)
	}
}

// TestEncodeProgramErrorMatchesOracle: a node of no known type fails
// the writer with the oracle's error, and the digest with the error
// the round-trip digest used to return.
func TestEncodeProgramErrorMatchesOracle(t *testing.T) {
	p := &model.Program{Name: "p", Blocks: []*model.Block{
		{Name: "ok", Body: []model.Node{&model.Compute{Cycles: 1}}},
		{Name: "bad", Body: []model.Node{&model.Loop{Var: "i", Trip: 2, Body: []model.Node{nil}}}},
	}}
	_, want := encodeProgramOracle(p)
	if want == nil {
		t.Fatal("oracle accepted a nil node")
	}
	if _, err := EncodeProgram(p); err == nil || err.Error() != want.Error() {
		t.Fatalf("EncodeProgram error %v, oracle %v", err, want)
	}
	if _, err := ProgramDigest(p); err == nil || err.Error() != "modelio: canonicalize: "+want.Error() {
		t.Fatalf("ProgramDigest error %v, want canonicalize: %v", err, want)
	}
}

func checkEncodeOracle(t *testing.T, p *model.Program) {
	t.Helper()
	want, err := encodeProgramOracle(p)
	if err != nil {
		t.Fatalf("%s: oracle: %v", p.Name, err)
	}
	got, err := EncodeProgram(p)
	if err != nil {
		t.Fatalf("%s: encode: %v", p.Name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: writer differs from MarshalIndent:\n got %s\nwant %s", p.Name, got, want)
	}
}
