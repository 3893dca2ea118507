// Package modelio serializes application models and platforms to and
// from JSON, so the command-line tools can explore applications that
// were not compiled into the binary (e.g. emitted by an external
// front-end that extracted the loop nests from C source).
//
// The program schema mirrors the model package:
//
//	{
//	  "name": "fir",
//	  "arrays": [
//	    {"name": "x", "elem_size": 2, "dims": [1040], "input": true},
//	    {"name": "y", "elem_size": 2, "dims": [1024], "output": true}
//	  ],
//	  "blocks": [
//	    {"name": "fir", "body": [
//	      {"loop": {"var": "n", "trip": 1024, "body": [
//	        {"loop": {"var": "k", "trip": 16, "body": [
//	          {"load": {"array": "x", "index": [
//	            {"terms": [{"var": "n", "coef": 1}, {"var": "k", "coef": 1}]}
//	          ]}},
//	          {"compute": 2}
//	        ]}},
//	        {"store": {"array": "y", "index": [{"terms": [{"var": "n", "coef": 1}]}]}}
//	      ]}}
//	    ]}
//	  ]
//	}
//
// Platforms marshal directly (all platform fields are exported); the
// helpers here add validation on decode. Both decoders read the common
// case in one pass with a strict scanner and leave everything else to
// encoding/json (see scanner); EncodeProgram and ProgramDigest write
// the program encoding directly from the model.
package modelio

import (
	"encoding/json"
	"fmt"

	"mhla/internal/model"
	"mhla/internal/platform"
)

type programJSON struct {
	Name   string      `json:"name"`
	Arrays []arrayJSON `json:"arrays"`
	Blocks []blockJSON `json:"blocks"`
}

type arrayJSON struct {
	Name     string `json:"name"`
	ElemSize int    `json:"elem_size"`
	Dims     []int  `json:"dims"`
	Input    bool   `json:"input,omitempty"`
	Output   bool   `json:"output,omitempty"`
}

type blockJSON struct {
	Name string     `json:"name"`
	Body []nodeJSON `json:"body"`
}

// nodeJSON is a tagged union: exactly one field must be set.
type nodeJSON struct {
	Loop    *loopJSON   `json:"loop,omitempty"`
	Load    *accessJSON `json:"load,omitempty"`
	Store   *accessJSON `json:"store,omitempty"`
	Compute *int64      `json:"compute,omitempty"`
}

type loopJSON struct {
	Var  string     `json:"var"`
	Trip int        `json:"trip"`
	Body []nodeJSON `json:"body"`
}

type accessJSON struct {
	Array string     `json:"array"`
	Index []exprJSON `json:"index"`
}

type exprJSON struct {
	Const int        `json:"const,omitempty"`
	Terms []termJSON `json:"terms,omitempty"`
}

type termJSON struct {
	Var  string `json:"var"`
	Coef int    `json:"coef"`
}

// EncodeProgram renders a program as indented JSON, its canonical
// byte encoding. The encoding is deterministic (arrays, blocks and
// loop bodies keep their model order; map iteration never leaks in),
// so two programs have the same canonical encoding exactly when they
// describe the same model — name, arrays (order, element sizes,
// dimensions, input/output flags) and block structure — no matter how
// their original JSON was formatted or key-ordered. The serving layer
// keys its compiled-workspace cache on this encoding of the decoded
// (validated) request program (see ProgramDigest), so whitespace,
// field order and other surface variation of the wire form never
// splits the cache.
func EncodeProgram(p *model.Program) ([]byte, error) {
	return appendProgram(nil, p)
}

// DecodeProgram parses and validates a program. Input in the strict
// subset the scanner reads (see scanner) is decoded in one pass; any
// other input goes through encoding/json, so both paths accept the same
// programs, decode them to the same value and reject the rest with the
// same errors.
func DecodeProgram(data []byte) (*model.Program, error) {
	p, ok := scanProgram(data)
	if !ok {
		var err error
		if p, err = unmarshalProgram(data); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	return p, nil
}

// unmarshalProgram decodes a program with encoding/json and builds the
// model, without validating it.
func unmarshalProgram(data []byte) (*model.Program, error) {
	var pj programJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	p := model.NewProgram(pj.Name)
	arrays := make(map[string]*model.Array, len(pj.Arrays))
	for _, aj := range pj.Arrays {
		a := p.NewArray(aj.Name, aj.ElemSize, aj.Dims...)
		a.Input, a.Output = aj.Input, aj.Output
		arrays[aj.Name] = a
	}
	for _, bj := range pj.Blocks {
		body, err := decodeNodes(bj.Body, arrays)
		if err != nil {
			return nil, fmt.Errorf("modelio: block %q: %w", bj.Name, err)
		}
		p.AddBlock(bj.Name, body...)
	}
	return p, nil
}

func decodeNodes(nodes []nodeJSON, arrays map[string]*model.Array) ([]model.Node, error) {
	var out []model.Node
	for i, nj := range nodes {
		set := 0
		if nj.Loop != nil {
			set++
		}
		if nj.Load != nil {
			set++
		}
		if nj.Store != nil {
			set++
		}
		if nj.Compute != nil {
			set++
		}
		if set != 1 {
			return nil, fmt.Errorf("node %d: exactly one of loop/load/store/compute required", i)
		}
		switch {
		case nj.Loop != nil:
			body, err := decodeNodes(nj.Loop.Body, arrays)
			if err != nil {
				return nil, err
			}
			out = append(out, &model.Loop{Var: nj.Loop.Var, Trip: nj.Loop.Trip, Body: body})
		case nj.Load != nil:
			acc, err := decodeAccess(nj.Load, model.Read, arrays)
			if err != nil {
				return nil, err
			}
			out = append(out, acc)
		case nj.Store != nil:
			acc, err := decodeAccess(nj.Store, model.Write, arrays)
			if err != nil {
				return nil, err
			}
			out = append(out, acc)
		case nj.Compute != nil:
			out = append(out, &model.Compute{Cycles: *nj.Compute})
		}
	}
	return out, nil
}

func decodeAccess(aj *accessJSON, kind model.AccessKind, arrays map[string]*model.Array) (*model.Access, error) {
	arr, ok := arrays[aj.Array]
	if !ok {
		return nil, fmt.Errorf("access to undeclared array %q", aj.Array)
	}
	acc := &model.Access{Array: arr, Kind: kind}
	for _, ej := range aj.Index {
		terms := make([]model.Term, 0, len(ej.Terms))
		for _, t := range ej.Terms {
			terms = append(terms, model.Term{Var: t.Var, Coef: t.Coef})
		}
		acc.Index = append(acc.Index, model.Affine(ej.Const, terms...))
	}
	return acc, nil
}

// EncodePlatform renders a platform as indented JSON.
func EncodePlatform(p *platform.Platform) ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// DecodePlatform parses and validates a platform, through the scanner
// or encoding/json as DecodeProgram does.
func DecodePlatform(data []byte) (*platform.Platform, error) {
	p, ok := scanPlatform(data)
	if !ok {
		p = new(platform.Platform)
		if err := json.Unmarshal(data, p); err != nil {
			return nil, fmt.Errorf("modelio: %w", err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	return p, nil
}
