package instance

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"treesched/internal/graph"
)

// The wire form of a Problem is one JSON object:
//
//	{"kind":"tree"|"line", "num_vertices":n, "tree_edges":[[[child,parent],...],...],
//	 "num_slots":s, "num_resources":r, "demands":[Demand,...], "capacities":[[c,...],...]}
//
// Demands use Demand's json tags. num_vertices, tree_edges, num_slots,
// num_resources and capacities are omitted when zero or empty.
//
// The reader and writer below are written for this one schema. They
// reproduce what encoding/json does with the equivalent tagged struct,
// which the package tests keep as the differential oracle:
//
//   - AppendWire writes the bytes json.Marshal writes, with trees as
//     (child, parent) edges rooted at 0, encoding/json's float
//     formatting, and an error on NaN or ±Inf.
//   - UnmarshalJSON accepts exactly the inputs json.Unmarshal accepts
//     and yields the same Problem: keys match exactly, else by
//     bytes.EqualFold; unknown keys are skipped but syntax-checked;
//     null leaves a scalar, array or object unchanged and clears a
//     slice; a repeated key decodes over the earlier value, slice
//     elements included; [2]int edges skip extra elements and zero
//     missing ones; integer fields reject fractions, exponents and
//     overflow; float fields reject overflow; anything but whitespace
//     after the object is an error.

// MarshalJSON encodes the problem in its canonical wire form.
func (p *Problem) MarshalJSON() ([]byte, error) {
	return p.AppendWire(nil)
}

// AppendWire appends the problem's canonical wire form to dst. Equal
// problems give equal bytes, however their trees were built, so the
// bytes are the problem's identity: the serving layer's cache keys are
// SHA-256 over them. Non-finite floats have no JSON form and are an
// error.
func (p *Problem) AppendWire(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"kind":"`...)
	dst = append(dst, p.Kind.String()...)
	dst = append(dst, '"')
	if p.NumVertices != 0 {
		dst = append(dst, `,"num_vertices":`...)
		dst = strconv.AppendInt(dst, int64(p.NumVertices), 10)
	}
	if len(p.Trees) > 0 {
		dst = append(dst, `,"tree_edges":[`...)
		for q, t := range p.Trees {
			if q > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for v := 1; v < t.N(); v++ {
				if v > 1 {
					dst = append(dst, ',')
				}
				dst = append(dst, '[')
				dst = strconv.AppendInt(dst, int64(v), 10)
				dst = append(dst, ',')
				dst = strconv.AppendInt(dst, int64(t.Parent(v)), 10)
				dst = append(dst, ']')
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	if p.NumSlots != 0 {
		dst = append(dst, `,"num_slots":`...)
		dst = strconv.AppendInt(dst, int64(p.NumSlots), 10)
	}
	if p.NumResources != 0 {
		dst = append(dst, `,"num_resources":`...)
		dst = strconv.AppendInt(dst, int64(p.NumResources), 10)
	}
	dst = append(dst, `,"demands":`...)
	if p.Demands == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range p.Demands {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendDemand(dst, &p.Demands[i]); err != nil {
				return nil, err
			}
		}
		dst = append(dst, ']')
	}
	if len(p.Capacities) > 0 {
		dst = append(dst, `,"capacities":[`...)
		for q, row := range p.Capacities {
			if q > 0 {
				dst = append(dst, ',')
			}
			if row == nil {
				dst = append(dst, "null"...)
				continue
			}
			dst = append(dst, '[')
			for e, c := range row {
				if e > 0 {
					dst = append(dst, ',')
				}
				if dst, err = appendFloat(dst, c); err != nil {
					return nil, err
				}
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

func appendDemand(dst []byte, d *Demand) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(d.ID), 10)
	for _, f := range [...]struct {
		key string
		v   int
	}{{`,"u":`, d.U}, {`,"v":`, d.V}, {`,"release":`, d.Release}, {`,"deadline":`, d.Deadline}, {`,"proctime":`, d.ProcTime}} {
		if f.v != 0 {
			dst = append(dst, f.key...)
			dst = strconv.AppendInt(dst, int64(f.v), 10)
		}
	}
	var err error
	dst = append(dst, `,"profit":`...)
	if dst, err = appendFloat(dst, d.Profit); err != nil {
		return nil, err
	}
	dst = append(dst, `,"height":`...)
	if dst, err = appendFloat(dst, d.Height); err != nil {
		return nil, err
	}
	dst = append(dst, `,"access":`...)
	if d.Access == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for k, q := range d.Access {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(q), 10)
	}
	return append(dst, "]}"...), nil
}

// appendFloat formats f as encoding/json does: like ES6 number-to-string,
// the shortest representation, in exponent form below 1e-6 or from 1e21
// on, with the exponent not padded to two digits.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("instance: unsupported value %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// UnmarshalJSON decodes the wire form, rebuilds the trees and validates
// the problem, so an invalid problem is an error here.
func (p *Problem) UnmarshalJSON(data []byte) error {
	d := wireDecoder{data: data}
	var w wireProblem
	if err := d.problem(&w); err != nil {
		return err
	}
	if c := d.start(); d.pos < len(d.data) {
		return d.unexpected(c, "after top-level value")
	}
	switch string(w.kind) {
	case "tree":
		p.Kind = KindTree
	case "line":
		p.Kind = KindLine
	default:
		return fmt.Errorf("instance: unknown kind %q", w.kind)
	}
	p.NumVertices = w.numVertices
	p.NumSlots = w.numSlots
	p.NumResources = w.numResources
	p.Demands = w.demands
	p.Capacities = w.capacities
	p.Trees = nil
	for q, edges := range w.treeEdges {
		t, err := graph.NewTree(w.numVertices, edges)
		if err != nil {
			return fmt.Errorf("instance: tree %d: %w", q, err)
		}
		p.Trees = append(p.Trees, t)
	}
	return p.Validate()
}

// wireProblem holds the decoded fields before the trees are built.
type wireProblem struct {
	kind         []byte
	numVertices  int
	treeEdges    [][][2]int
	numSlots     int
	numResources int
	demands      []Demand
	capacities   [][]float64
}

var (
	problemKeys = []string{"kind", "num_vertices", "tree_edges", "num_slots", "num_resources", "demands", "capacities"}
	demandKeys  = []string{"id", "u", "v", "release", "deadline", "proctime", "profit", "height", "access"}
)

// matchKey returns the name in names that key selects the way
// encoding/json selects a struct field: an exact match, else a
// case-insensitive one. It returns "" when no name matches.
func matchKey(names []string, key []byte) string {
	for _, n := range names {
		// The first-byte test keeps this to one string comparison.
		if len(key) == len(n) && key[0] == n[0] && string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// maxWireDepth is encoding/json's nesting limit: deeper input is a
// syntax error there, so it is one here.
const maxWireDepth = 10000

// wireDecoder is a single-pass reader over one JSON document.
type wireDecoder struct {
	data  []byte
	pos   int
	depth int
	key   []byte // unescaped object key, reused
}

func (d *wireDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("instance: decode problem at offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// start skips whitespace and returns the next byte, or 0 at the end of
// the input. A NUL byte is invalid wherever start is called, so callers
// need not tell the two apart.
func (d *wireDecoder) start() byte {
	if d.pos < len(d.data) && d.data[d.pos] > ' ' {
		return d.data[d.pos]
	}
	return d.skipSpace()
}

func (d *wireDecoder) skipSpace() byte {
	data, pos := d.data, d.pos
	for ; pos < len(data); pos++ {
		switch c := data[pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			d.pos = pos
			return c
		}
	}
	d.pos = pos
	return 0
}

// unexpected reports byte c, returned by start, where it cannot appear.
func (d *wireDecoder) unexpected(c byte, context string) error {
	if c == 0 && d.pos == len(d.data) {
		return d.errorf("unexpected end of input")
	}
	return d.errorf("invalid character %q %s", c, context)
}

// begin starts the next value, which must be null or of the JSON type
// that starts with first ('{', '[', '"', or '0' for a number). It
// consumes a null and reports it.
func (d *wireDecoder) begin(first byte) (null bool, err error) {
	c := d.start()
	switch {
	case c == 'n':
		return true, d.literal("null")
	case c == first || first == '0' && (c == '-' || '0' <= c && c <= '9'):
		return false, nil
	}
	got := typeName(c)
	if got == "" {
		return false, d.unexpected(c, "looking for beginning of value")
	}
	return false, d.errorf("cannot decode %s into %s", got, typeName(first))
}

// typeName names the JSON type of a value that starts with c.
func typeName(c byte) string {
	switch {
	case c == '{':
		return "object"
	case c == '[':
		return "array"
	case c == '"':
		return "string"
	case c == 't' || c == 'f':
		return "bool"
	case c == '-' || '0' <= c && c <= '9':
		return "number"
	}
	return ""
}

// literal consumes the keyword lit (true, false or null).
func (d *wireDecoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		return d.errorf("invalid literal, want %s", lit)
	}
	d.pos += len(lit)
	return nil
}

// open consumes the '[' or '{' at d.pos.
func (d *wireDecoder) open() error {
	d.depth++
	if d.depth > maxWireDepth {
		return d.errorf("exceeded max depth")
	}
	d.pos++
	return nil
}

// next reports whether another element follows in the open array or
// object that end closes, after n elements. It consumes the separating
// comma, or the closing byte when it returns false.
func (d *wireDecoder) next(end byte, n int) (bool, error) {
	c := d.start()
	switch {
	case c == end:
		d.pos++
		d.depth--
		return false, nil
	case n == 0:
		return true, nil
	case c == ',':
		d.pos++
		return true, nil
	}
	return false, d.unexpected(c, "after element")
}

// array decodes an array whose '[' is next, calling elem with the index
// of each element with d.pos at the element, which elem must consume.
// It returns the number of elements.
func (d *wireDecoder) array(elem func(n int) error) (int, error) {
	if err := d.open(); err != nil {
		return 0, err
	}
	for n := 0; ; n++ {
		more, err := d.next(']', n)
		if err != nil || !more {
			return n, err
		}
		if err := elem(n); err != nil {
			return n, err
		}
	}
}

// object decodes an object, calling member for each key with d.pos at
// the key's value, which member must consume. The key is valid until
// the next key is read.
func (d *wireDecoder) object(member func(key []byte) error) error {
	if err := d.open(); err != nil {
		return err
	}
	for n := 0; ; n++ {
		more, err := d.next('}', n)
		if err != nil || !more {
			return err
		}
		if c := d.start(); c != '"' {
			return d.unexpected(c, "looking for beginning of object key")
		}
		raw, escaped, err := d.str()
		if err != nil {
			return err
		}
		key := raw
		if escaped {
			d.key = unescape(d.key[:0], raw)
			key = d.key
		}
		if c := d.start(); c != ':' {
			return d.unexpected(c, "after object key")
		}
		d.pos++
		if err := member(key); err != nil {
			return err
		}
	}
}

// str scans the string whose opening quote is at d.pos and returns its
// raw contents and whether they hold escapes.
func (d *wireDecoder) str() (raw []byte, escaped bool, err error) {
	data := d.data
	begin := d.pos + 1
	for pos := begin; pos < len(data); pos++ {
		c := data[pos]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		d.pos = pos
		switch {
		case c == '"':
			d.pos++
			return data[begin:pos], escaped, nil
		case c < 0x20:
			return nil, false, d.errorf("invalid control character %q in string", c)
		}
		escaped = true
		if pos++; pos == len(data) {
			break
		}
		switch data[pos] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		case 'u':
			if hex4(data[pos+1:]) < 0 {
				return nil, false, d.errorf("invalid \\u escape in string")
			}
			pos += 4
		default:
			return nil, false, d.errorf("invalid escape %q in string", data[pos])
		}
	}
	d.pos = len(data)
	return nil, false, d.errorf("unexpected end of input in string")
}

// hex4 decodes the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unescape appends the string value of raw, a syntax-checked string body,
// to dst, as encoding/json unquotes: invalid UTF-8 and unpaired
// surrogates become U+FFFD.
func unescape(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' {
			r, n := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
			continue
		}
		switch c = raw[i+1]; c {
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r := hex4(raw[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				lo := rune(-1)
				if i+1 < len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					lo = hex4(raw[i+2:])
				}
				if r = utf16.DecodeRune(r, lo); r != unicode.ReplacementChar {
					i += 6
				}
			}
			dst = utf8.AppendRune(dst, r)
			continue
		default: // '"', '\\', '/'
			dst = append(dst, c)
		}
		i += 2
	}
	return dst
}

// number scans the number at d.pos and returns its text.
func (d *wireDecoder) number() ([]byte, error) {
	data, begin := d.data, d.pos
	pos := begin
	if data[pos] == '-' {
		pos++
	}
	ok := pos < len(data)
	switch {
	case !ok:
	case data[pos] == '0':
		pos++
	default:
		pos, ok = digits(data, pos)
	}
	if ok && pos < len(data) && data[pos] == '.' {
		pos, ok = digits(data, pos+1)
	}
	if ok && pos < len(data) && data[pos]|0x20 == 'e' {
		pos++
		if pos < len(data) && (data[pos] == '+' || data[pos] == '-') {
			pos++
		}
		pos, ok = digits(data, pos)
	}
	d.pos = pos
	if !ok {
		return nil, d.errorf("invalid number")
	}
	return data[begin:pos], nil
}

// digits returns the end of the run of decimal digits that starts at
// data[pos], and whether the run is non-empty.
func digits(data []byte, pos int) (int, bool) {
	from := pos
	for pos < len(data) && '0' <= data[pos] && data[pos] <= '9' {
		pos++
	}
	return pos, pos > from
}

// skip consumes one value of any type, checking its syntax.
func (d *wireDecoder) skip() error {
	c := d.start()
	switch {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		_, err := d.array(func(int) error { return d.skip() })
		return err
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.unexpected(c, "looking for beginning of value")
}

// intVal decodes a number into *v as encoding/json decodes into an int.
func (d *wireDecoder) intVal(v *int) error {
	if null, err := d.begin('0'); null || err != nil {
		return err
	}
	num, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	if err != nil {
		return d.errorf("cannot decode number %s into an integer", num)
	}
	*v = int(n)
	return nil
}

// floatVal decodes a number into *v as encoding/json decodes into a
// float64.
func (d *wireDecoder) floatVal(v *float64) error {
	if null, err := d.begin('0'); null || err != nil {
		return err
	}
	num, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return d.errorf("cannot decode number %s into a float64", num)
	}
	*v = f
	return nil
}

// slice decodes an array into *s as encoding/json decodes into a slice:
// null sets nil, [] sets an empty non-nil slice, and elements decode
// over what an earlier value for the same key left within the slice's
// capacity.
func slice[T any](d *wireDecoder, s *[]T, elem func(*T) error) error {
	null, err := d.begin('[')
	if null {
		*s = nil
	}
	if null || err != nil {
		return err
	}
	v := *s
	n, err := d.array(func(n int) error {
		if n == cap(v) {
			v = slices.Grow(v, max(4, n))
		}
		if n == len(v) {
			v = v[:n+1]
		}
		return elem(&v[n])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		v = []T{}
	}
	*s = v[:n]
	return nil
}

// edge decodes an array into a [2]int as encoding/json decodes into an
// array: null leaves it unchanged, extra elements are skipped and
// missing ones zeroed.
func (d *wireDecoder) edge(e *[2]int) error {
	if null, err := d.begin('['); null || err != nil {
		return err
	}
	n, err := d.array(func(n int) error {
		if n < len(e) {
			return d.intVal(&e[n])
		}
		return d.skip()
	})
	if err != nil {
		return err
	}
	for ; n < len(e); n++ {
		e[n] = 0
	}
	return nil
}

func (d *wireDecoder) edges(s *[][2]int) error { return slice(d, s, d.edge) }

func (d *wireDecoder) ints(s *[]int) error { return slice(d, s, d.intVal) }

func (d *wireDecoder) floats(s *[]float64) error { return slice(d, s, d.floatVal) }

// demand decodes an object into *dm; null leaves it unchanged.
func (d *wireDecoder) demand(dm *Demand) error {
	if null, err := d.begin('{'); null || err != nil {
		return err
	}
	return d.object(func(key []byte) error {
		switch matchKey(demandKeys, key) {
		case "id":
			return d.intVal(&dm.ID)
		case "u":
			return d.intVal(&dm.U)
		case "v":
			return d.intVal(&dm.V)
		case "release":
			return d.intVal(&dm.Release)
		case "deadline":
			return d.intVal(&dm.Deadline)
		case "proctime":
			return d.intVal(&dm.ProcTime)
		case "profit":
			return d.floatVal(&dm.Profit)
		case "height":
			return d.floatVal(&dm.Height)
		case "access":
			return d.ints(&dm.Access)
		}
		return d.skip()
	})
}

// problem decodes the top-level object into *w; null leaves it unchanged.
func (d *wireDecoder) problem(w *wireProblem) error {
	if null, err := d.begin('{'); null || err != nil {
		return err
	}
	return d.object(func(key []byte) error {
		switch matchKey(problemKeys, key) {
		case "kind":
			return d.kind(&w.kind)
		case "num_vertices":
			return d.intVal(&w.numVertices)
		case "tree_edges":
			return slice(d, &w.treeEdges, d.edges)
		case "num_slots":
			return d.intVal(&w.numSlots)
		case "num_resources":
			return d.intVal(&w.numResources)
		case "demands":
			return slice(d, &w.demands, d.demand)
		case "capacities":
			return slice(d, &w.capacities, d.floats)
		}
		return d.skip()
	})
}

// kind decodes a string into *k; null leaves it unchanged. *k aliases
// the input unless the string holds escapes.
func (d *wireDecoder) kind(k *[]byte) error {
	if null, err := d.begin('"'); null || err != nil {
		return err
	}
	raw, escaped, err := d.str()
	if err != nil {
		return err
	}
	if escaped {
		raw = unescape(nil, raw)
	}
	*k = raw
	return nil
}
