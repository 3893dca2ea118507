package modelio

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"mhla/internal/model"
)

// canonBufs recycles ProgramDigest's encoding buffers.
var canonBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledCanon caps the buffers canonBufs keeps, so one huge program
// does not pin its encoding's memory for the life of the process.
const maxPooledCanon = 1 << 20

// ProgramDigest returns the hex SHA-256 digest of a program's
// canonical encoding — the cache key of the serving layer's
// compiled-workspace cache. Same model, same digest, independent of
// the wire formatting the program arrived in. The encoding is written
// straight from the model into a pooled buffer, so a digest costs the
// same few allocations whatever the program's size.
func ProgramDigest(p *model.Program) (string, error) {
	buf := canonBufs.Get().(*[]byte)
	data, err := appendProgram((*buf)[:0], p)
	if err != nil {
		canonBufs.Put(buf)
		return "", fmt.Errorf("modelio: canonicalize: %w", err)
	}
	sum := sha256.Sum256(data)
	if cap(data) <= maxPooledCanon {
		*buf = data
		canonBufs.Put(buf)
	}
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:]), nil
}

// appendProgram appends the interchange JSON of p to dst: byte for
// byte what json.MarshalIndent(programJSON, "", "  ") renders, written
// without reflection or an intermediate tree. Nil slices render as
// null where the programJSON encoding would carry a nil slice (arrays,
// blocks, dims, index) and loop and block bodies are always lists.
func appendProgram(dst []byte, p *model.Program) ([]byte, error) {
	dst = append(dst, "{\n  \"name\": "...)
	dst = appendString(dst, p.Name)
	dst = append(dst, ",\n  \"arrays\": "...)
	if len(p.Arrays) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, a := range p.Arrays {
			dst = appendArray(dst, i, a)
		}
		dst = append(dst, "\n  ]"...)
	}
	dst = append(dst, ",\n  \"blocks\": "...)
	if len(p.Blocks) == 0 {
		return append(dst, "null\n}"...), nil
	}
	dst = append(dst, '[')
	for i, b := range p.Blocks {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n    {\n      \"name\": "...)
		dst = appendString(dst, b.Name)
		dst = append(dst, ",\n      \"body\": "...)
		var err error
		if dst, err = appendNodes(dst, b.Body, 3); err != nil {
			return nil, fmt.Errorf("modelio: block %q: %w", b.Name, err)
		}
		dst = append(dst, "\n    }"...)
	}
	return append(dst, "\n  ]\n}"...), nil
}

// appendArray appends the i-th element of the arrays list.
func appendArray(dst []byte, i int, a *model.Array) []byte {
	if i > 0 {
		dst = append(dst, ',')
	}
	dst = append(dst, "\n    {\n      \"name\": "...)
	dst = appendString(dst, a.Name)
	dst = append(dst, ",\n      \"elem_size\": "...)
	dst = strconv.AppendInt(dst, int64(a.ElemSize), 10)
	dst = append(dst, ",\n      \"dims\": "...)
	switch {
	case a.Dims == nil:
		dst = append(dst, "null"...)
	case len(a.Dims) == 0:
		dst = append(dst, "[]"...)
	default:
		dst = append(dst, '[')
		for j, d := range a.Dims {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n        "...)
			dst = strconv.AppendInt(dst, int64(d), 10)
		}
		dst = append(dst, "\n      ]"...)
	}
	if a.Input {
		dst = append(dst, ",\n      \"input\": true"...)
	}
	if a.Output {
		dst = append(dst, ",\n      \"output\": true"...)
	}
	return append(dst, "\n    }"...)
}

// appendNodes appends a body list whose opening bracket sits at the
// given indent depth.
func appendNodes(dst []byte, nodes []model.Node, depth int) ([]byte, error) {
	if len(nodes) == 0 {
		return append(dst, "[]"...), nil
	}
	dst = append(dst, '[')
	for i, n := range nodes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendIndent(dst, depth+1)
		dst = append(dst, '{')
		dst = appendIndent(dst, depth+2)
		switch n := n.(type) {
		case *model.Loop:
			dst = append(dst, "\"loop\": {"...)
			dst = appendIndent(dst, depth+3)
			dst = append(dst, "\"var\": "...)
			dst = appendString(dst, n.Var)
			dst = append(dst, ',')
			dst = appendIndent(dst, depth+3)
			dst = append(dst, "\"trip\": "...)
			dst = strconv.AppendInt(dst, int64(n.Trip), 10)
			dst = append(dst, ',')
			dst = appendIndent(dst, depth+3)
			dst = append(dst, "\"body\": "...)
			var err error
			if dst, err = appendNodes(dst, n.Body, depth+3); err != nil {
				return nil, err
			}
			dst = appendIndent(dst, depth+2)
			dst = append(dst, '}')
		case *model.Access:
			if n.Kind == model.Read {
				dst = append(dst, "\"load\": {"...)
			} else {
				dst = append(dst, "\"store\": {"...)
			}
			dst = appendIndent(dst, depth+3)
			dst = append(dst, "\"array\": "...)
			dst = appendString(dst, n.Array.Name)
			dst = append(dst, ',')
			dst = appendIndent(dst, depth+3)
			dst = append(dst, "\"index\": "...)
			dst = appendIndex(dst, n.Index, depth+3)
			dst = appendIndent(dst, depth+2)
			dst = append(dst, '}')
		case *model.Compute:
			dst = append(dst, "\"compute\": "...)
			dst = strconv.AppendInt(dst, n.Cycles, 10)
		default:
			return nil, fmt.Errorf("unknown node type %T", n)
		}
		dst = appendIndent(dst, depth+1)
		dst = append(dst, '}')
	}
	dst = appendIndent(dst, depth)
	return append(dst, ']'), nil
}

// appendIndex appends an access's index list, one expression object
// per dimension.
func appendIndex(dst []byte, index []model.Expr, depth int) []byte {
	if len(index) == 0 {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, e := range index {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendIndent(dst, depth+1)
		if e.Const == 0 && len(e.Terms) == 0 {
			dst = append(dst, "{}"...)
			continue
		}
		dst = append(dst, '{')
		if e.Const != 0 {
			dst = appendIndent(dst, depth+2)
			dst = append(dst, "\"const\": "...)
			dst = strconv.AppendInt(dst, int64(e.Const), 10)
		}
		if len(e.Terms) > 0 {
			if e.Const != 0 {
				dst = append(dst, ',')
			}
			dst = appendIndent(dst, depth+2)
			dst = append(dst, "\"terms\": ["...)
			for j, t := range e.Terms {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendIndent(dst, depth+3)
				dst = append(dst, '{')
				dst = appendIndent(dst, depth+4)
				dst = append(dst, "\"var\": "...)
				dst = appendString(dst, t.Var)
				dst = append(dst, ',')
				dst = appendIndent(dst, depth+4)
				dst = append(dst, "\"coef\": "...)
				dst = strconv.AppendInt(dst, int64(t.Coef), 10)
				dst = appendIndent(dst, depth+3)
				dst = append(dst, '}')
			}
			dst = appendIndent(dst, depth+2)
			dst = append(dst, ']')
		}
		dst = appendIndent(dst, depth+1)
		dst = append(dst, '}')
	}
	dst = appendIndent(dst, depth)
	return append(dst, ']')
}

// appendIndent starts a new line indented depth levels of two spaces.
func appendIndent(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for range depth {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// appendString appends s as a JSON string the way encoding/json does.
// Printable ASCII other than the quote, the backslash and the three
// HTML-escaped characters (<, >, &) is copied as is; any other string
// is rare in a model and goes through json.Marshal.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
