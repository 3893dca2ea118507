package modelio

import (
	"slices"
	"strconv"
	"sync"

	"mhla/internal/model"
	"mhla/internal/platform"
)

// scanner is the one-pass fast path of DecodeProgram and
// DecodePlatform: a strict JSON reader that builds the model or the
// platform straight from the bytes, with no reflection and no
// intermediate tree. It accepts only input that encoding/json decodes
// to the same value:
//
//   - schema keys in their exact case, each at most once per object,
//     and no other keys;
//   - no null, except a platform's DMA (a nil engine);
//   - strings of ASCII without escapes or control characters;
//   - integers without fraction or exponent that fit their field;
//   - floats in JSON number grammar, parsed by strconv.ParseFloat;
//   - a program's arrays before its blocks, each node with exactly one
//     member, and accesses only to declared arrays.
//
// Every method reports false on anything else, and the caller then
// decodes with encoding/json, so accepted values, rejections and error
// messages are all encoding/json's.
type scanner struct {
	data []byte
	pos  int
	// loops is the loop nesting depth of the current position.
	loops int
	// names interns identifiers: a program repeats a few loop
	// variables many times.
	names []string
	// arrays indexes the program's declared arrays by name.
	arrays map[string]*model.Array
	// Pending list elements, stacks shared by nested lists.
	nodes []model.Node
	exprs []model.Expr
	terms []model.Term
	ints  []int
}

const (
	// maxInterned bounds the identifiers the scanner interns.
	maxInterned = 64
	// maxLoopDepth bounds loop nesting, well inside encoding/json's
	// nesting limit (three JSON levels per loop).
	maxLoopDepth = 1000
)

var scanners = sync.Pool{New: func() any { return new(scanner) }}

// scanProgram decodes a program on the fast path; false means the
// input is outside the scanner's subset (or has a semantic error the
// encoding/json path reports).
func scanProgram(data []byte) (*model.Program, bool) {
	s := scanners.Get().(*scanner)
	s.data = data
	p, ok := s.program()
	ok = ok && s.end()
	s.reset()
	return p, ok
}

// scanPlatform decodes a platform on the fast path.
func scanPlatform(data []byte) (*platform.Platform, bool) {
	s := scanners.Get().(*scanner)
	s.data = data
	p, ok := s.platform()
	ok = ok && s.end()
	s.reset()
	return p, ok
}

// reset drops every reference into the last input and its model and
// returns s to the pool.
func (s *scanner) reset() {
	s.data, s.pos, s.loops = nil, 0, 0
	clear(s.names)
	clear(s.nodes)
	clear(s.exprs)
	clear(s.terms)
	clear(s.arrays)
	s.names, s.nodes, s.exprs, s.terms, s.ints = s.names[:0], s.nodes[:0], s.exprs[:0], s.terms[:0], s.ints[:0]
	scanners.Put(s)
}

// end reports whether only whitespace follows the top-level value.
func (s *scanner) end() bool {
	s.space()
	return s.pos == len(s.data)
}

func (s *scanner) space() {
	d, i := s.data, s.pos
	for i < len(d) && d[i] <= ' ' && (d[i] == ' ' || d[i] == '\n' || d[i] == '\t' || d[i] == '\r') {
		i++
	}
	s.pos = i
}

// eat consumes c, after any whitespace.
func (s *scanner) eat(c byte) bool {
	s.space()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// literal consumes lit, after any whitespace.
func (s *scanner) literal(lit string) bool {
	s.space()
	if len(s.data)-s.pos >= len(lit) && string(s.data[s.pos:s.pos+len(lit)]) == lit {
		s.pos += len(lit)
		return true
	}
	return false
}

// object reads an object whose keys are all in keys, each at most
// once, calling member with each key's index to read its value. The
// member functions callers pass do not escape, so they allocate
// nothing.
func (s *scanner) object(keys []string, member func(i int) bool) bool {
	if !s.eat('{') {
		return false
	}
	var seen uint16
	for first := true; ; first = false {
		if s.eat('}') {
			return true
		}
		if !first && !s.eat(',') {
			return false
		}
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return false
		}
		i := 0
		for i < len(keys) && keys[i] != string(key) {
			i++
		}
		if i == len(keys) || seen&(1<<i) != 0 || !member(i) {
			return false
		}
		seen |= 1 << i
	}
}

// list reads a list, calling elem to read each element.
func (s *scanner) list(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	for first := true; ; first = false {
		if s.eat(']') {
			return true
		}
		if !first && !s.eat(',') || !elem() {
			return false
		}
	}
}

// pop returns a copy of the elements pushed onto a stack since it was
// base long, or nil if there are none, and truncates the stack.
func pop[T any](stack *[]T, base int) []T {
	if len(*stack) == base {
		return nil
	}
	out := slices.Clone((*stack)[base:])
	clear((*stack)[base:])
	*stack = (*stack)[:base]
	return out
}

// str reads a string of ASCII without escapes or control characters
// and returns its bytes, which alias the input.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for i := s.pos; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			b := s.data[s.pos:i]
			s.pos = i + 1
			return b, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// name reads a string as an interned identifier.
func (s *scanner) name() (string, bool) {
	b, ok := s.str()
	if !ok {
		return "", false
	}
	for _, n := range s.names {
		if n == string(b) {
			return n, true
		}
	}
	n := string(b)
	if len(s.names) < maxInterned {
		s.names = append(s.names, n)
	}
	return n, true
}

// number reads a JSON number token and reports whether it is an
// integer literal (no fraction, no exponent).
func (s *scanner) number() (tok []byte, isInt, ok bool) {
	s.space()
	d, i := s.data, s.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		return nil, false, false
	}
	isInt = true
	if i < len(d) && d[i] == '.' {
		j := digits(d, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i, isInt = j, false
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i {
			return nil, false, false
		}
		i, isInt = j, false
	}
	tok, s.pos = d[s.pos:i], i
	return tok, isInt, true
}

// digits returns the index past the run of decimal digits at d[i:].
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// int64 reads an integer literal that fits in an int64.
func (s *scanner) int64() (int64, bool) {
	tok, isInt, ok := s.number()
	if !ok || !isInt {
		return 0, false
	}
	if len(tok) > 18 {
		v, err := strconv.ParseInt(string(tok), 10, 64)
		return v, err == nil
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	var v int64
	for _, c := range tok {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// int reads an integer literal that fits in an int.
func (s *scanner) int() (int, bool) {
	v, ok := s.int64()
	return int(v), ok && int64(int(v)) == v
}

// float reads a number as encoding/json decodes it into a float64.
func (s *scanner) float() (float64, bool) {
	tok, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// bool reads true or false.
func (s *scanner) bool() (bool, bool) {
	if s.literal("true") {
		return true, true
	}
	return false, s.literal("false")
}

var (
	programKeys = []string{"name", "arrays", "blocks"}
	arrayKeys   = []string{"name", "elem_size", "dims", "input", "output"}
	blockKeys   = []string{"name", "body"}
	nodeKeys    = []string{"loop", "load", "store", "compute"}
	loopKeys    = []string{"var", "trip", "body"}
	accessKeys  = []string{"array", "index"}
	exprKeys    = []string{"const", "terms"}
	termKeys    = []string{"var", "coef"}
)

func (s *scanner) program() (*model.Program, bool) {
	p := &model.Program{}
	arrays := false
	ok := s.object(programKeys, func(i int) (ok bool) {
		switch i {
		case 0:
			p.Name, ok = s.name()
		case 1:
			arrays, ok = true, s.arrayList(p)
		default: // blocks, which may name only arrays already read
			ok = arrays && s.list(func() bool {
				b, ok := s.block()
				p.Blocks = append(p.Blocks, b)
				return ok
			})
		}
		return ok
	})
	return p, ok
}

// arrayList reads the arrays and indexes them by name, the last one
// where several share a name, as the encoding/json path's map does.
func (s *scanner) arrayList(p *model.Program) bool {
	if s.arrays == nil {
		s.arrays = make(map[string]*model.Array)
	}
	return s.list(func() bool {
		a, ok := s.array()
		p.Arrays = append(p.Arrays, a)
		s.arrays[a.Name] = a
		return ok
	})
}

func (s *scanner) array() (*model.Array, bool) {
	a := &model.Array{}
	ok := s.object(arrayKeys, func(i int) (ok bool) {
		switch i {
		case 0:
			a.Name, ok = s.name()
		case 1:
			a.ElemSize, ok = s.int()
		case 2: // an empty list decodes to nil, as Program.NewArray copies it
			base := len(s.ints)
			ok = s.list(func() bool {
				d, ok := s.int()
				s.ints = append(s.ints, d)
				return ok
			})
			a.Dims = pop(&s.ints, base)
		case 3:
			a.Input, ok = s.bool()
		default:
			a.Output, ok = s.bool()
		}
		return ok
	})
	return a, ok
}

func (s *scanner) block() (*model.Block, bool) {
	b := &model.Block{}
	ok := s.object(blockKeys, func(i int) (ok bool) {
		if i == 0 {
			b.Name, ok = s.name()
		} else {
			b.Body, ok = s.body()
		}
		return ok
	})
	return b, ok
}

// body reads a list of nodes; an empty list decodes to nil.
func (s *scanner) body() ([]model.Node, bool) {
	base := len(s.nodes)
	ok := s.list(func() bool {
		n, ok := s.node()
		s.nodes = append(s.nodes, n)
		return ok
	})
	return pop(&s.nodes, base), ok
}

// node reads a node object with exactly one member.
func (s *scanner) node() (model.Node, bool) {
	var n model.Node
	members := 0
	ok := s.object(nodeKeys, func(i int) (ok bool) {
		members++
		switch i {
		case 0:
			n, ok = s.loop()
		case 1:
			n, ok = s.access(model.Read)
		case 2:
			n, ok = s.access(model.Write)
		default:
			var c int64
			c, ok = s.int64()
			n = &model.Compute{Cycles: c}
		}
		return ok
	})
	return n, ok && members == 1
}

func (s *scanner) loop() (*model.Loop, bool) {
	if s.loops == maxLoopDepth {
		return nil, false
	}
	s.loops++
	l := &model.Loop{}
	ok := s.object(loopKeys, func(i int) (ok bool) {
		switch i {
		case 0:
			l.Var, ok = s.name()
		case 1:
			l.Trip, ok = s.int()
		default:
			l.Body, ok = s.body()
		}
		return ok
	})
	s.loops--
	return l, ok
}

func (s *scanner) access(kind model.AccessKind) (*model.Access, bool) {
	acc := &model.Access{Kind: kind}
	var array []byte
	ok := s.object(accessKeys, func(i int) (ok bool) {
		if i == 0 {
			array, ok = s.str()
		} else {
			acc.Index, ok = s.index()
		}
		return ok
	})
	acc.Array = s.arrays[string(array)]
	return acc, ok && acc.Array != nil
}

// index reads a list of expressions; an empty list decodes to nil.
func (s *scanner) index() ([]model.Expr, bool) {
	base := len(s.exprs)
	ok := s.list(func() bool {
		e, ok := s.expr()
		s.exprs = append(s.exprs, e)
		return ok
	})
	return pop(&s.exprs, base), ok
}

// expr reads an expression object and normalizes it with model.Affine,
// as the encoding/json path does.
func (s *scanner) expr() (model.Expr, bool) {
	var c int
	base := len(s.terms)
	ok := s.object(exprKeys, func(i int) (ok bool) {
		if i == 0 {
			c, ok = s.int()
			return ok
		}
		return s.list(func() bool {
			t, ok := s.term()
			s.terms = append(s.terms, t)
			return ok
		})
	})
	e := model.Affine(c, s.terms[base:]...)
	clear(s.terms[base:])
	s.terms = s.terms[:base]
	return e, ok
}

func (s *scanner) term() (model.Term, bool) {
	var t model.Term
	ok := s.object(termKeys, func(i int) (ok bool) {
		if i == 0 {
			t.Var, ok = s.name()
		} else {
			t.Coef, ok = s.int()
		}
		return ok
	})
	return t, ok
}

var (
	platformKeys = []string{"Name", "Layers", "DMA", "SoftCopyCycles", "SoftCopyPJ"}
	layerKeys    = []string{"Name", "Capacity", "WordBytes", "EnergyRead", "EnergyWrite",
		"LatencyRead", "LatencyWrite", "BurstBytesPerCycle", "OffChip"}
	dmaKeys = []string{"SetupCycles", "Channels", "EnergyPerTransfer", "MinBytes"}
)

func (s *scanner) platform() (*platform.Platform, bool) {
	p := &platform.Platform{}
	ok := s.object(platformKeys, func(i int) (ok bool) {
		switch i {
		case 0:
			p.Name, ok = s.name()
		case 1: // an empty list decodes to an empty, non-nil slice
			p.Layers = []platform.Layer{}
			ok = s.list(func() bool {
				p.Layers = append(p.Layers, platform.Layer{})
				return s.layer(&p.Layers[len(p.Layers)-1])
			})
		case 2:
			if ok = s.literal("null"); !ok {
				p.DMA, ok = s.dma()
			}
		case 3:
			p.SoftCopyCycles, ok = s.int()
		default:
			p.SoftCopyPJ, ok = s.float()
		}
		return ok
	})
	return p, ok
}

func (s *scanner) layer(l *platform.Layer) bool {
	return s.object(layerKeys, func(i int) (ok bool) {
		switch i {
		case 0:
			l.Name, ok = s.name()
		case 1:
			l.Capacity, ok = s.int64()
		case 2:
			l.WordBytes, ok = s.int()
		case 3:
			l.EnergyRead, ok = s.float()
		case 4:
			l.EnergyWrite, ok = s.float()
		case 5:
			l.LatencyRead, ok = s.int()
		case 6:
			l.LatencyWrite, ok = s.int()
		case 7:
			l.BurstBytesPerCycle, ok = s.int()
		default:
			l.OffChip, ok = s.bool()
		}
		return ok
	})
}

func (s *scanner) dma() (*platform.DMA, bool) {
	d := &platform.DMA{}
	ok := s.object(dmaKeys, func(i int) (ok bool) {
		switch i {
		case 0:
			d.SetupCycles, ok = s.int()
		case 1:
			d.Channels, ok = s.int()
		case 2:
			d.EnergyPerTransfer, ok = s.float()
		default:
			d.MinBytes, ok = s.int()
		}
		return ok
	})
	return d, ok
}
