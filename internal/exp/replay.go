package exp

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"sync"
	"unicode/utf8"

	"streamline/internal/sim"
)

// decodeResult decodes a stored payload into res, overwriting all of it. A
// plan built once from sim.Result's type takes exactly what json.Marshal
// writes; any other payload, such as a record written for an older shape of
// sim.Result, goes to json.Unmarshal.
func decodeResult(data []byte, res *sim.Result) error {
	if rest, ok := resultPlan().decode(data, reflect.ValueOf(res).Elem()); ok && len(rest) == 0 {
		return nil
	}
	*res = sim.Result{} // the plan may have filled part of res
	return json.Unmarshal(data, res)
}

var resultPlan = sync.OnceValue(func() *plan { return planFor(reflect.TypeFor[sim.Result]()) })

// plan decodes one value of typ as json.Marshal encodes it: a struct's
// fields in declaration order, each after its prefix (the '{' or ',' before
// it and its quoted name with the colon), an array's or slice's elements.
type plan struct {
	typ      reflect.Type
	prefixes [][]byte
	fields   []*plan
	elem     *plan
}

// planFor builds t's plan. It panics on any kind, field or tag a sim.Result
// does not use, rather than decode them differently from encoding/json.
func planFor(t reflect.Type) *plan {
	p := &plan{typ: t}
	switch t.Kind() {
	case reflect.Uint64, reflect.Float64, reflect.String:
	case reflect.Slice, reflect.Array:
		p.elem = planFor(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			if !f.IsExported() || f.Anonymous || f.Tag != "" {
				panic("exp: replay plan: unsupported field " + t.String() + "." + f.Name)
			}
			prefix := "," + strconv.Quote(f.Name) + ":"
			if i == 0 {
				prefix = "{" + prefix[1:]
			}
			p.prefixes = append(p.prefixes, []byte(prefix))
			p.fields = append(p.fields, planFor(f.Type))
		}
		if t.NumField() > 0 {
			break
		}
		fallthrough // json.Marshal writes {} for an empty struct, which no prefix matches
	default:
		panic("exp: replay plan: unsupported type " + t.String())
	}
	return p
}

// decode decodes the value b starts with into v and returns the bytes after
// it; ok is false when b does not start with what json.Marshal writes.
func (p *plan) decode(b []byte, v reflect.Value) (rest []byte, ok bool) {
	switch kind := p.typ.Kind(); kind {
	case reflect.Struct:
		for i, f := range p.fields {
			if b, ok = bytes.CutPrefix(b, p.prefixes[i]); ok {
				b, ok = f.decode(b, v.Field(i))
			}
			if !ok {
				return nil, false
			}
		}
		return bytes.CutPrefix(b, []byte("}"))
	case reflect.Slice, reflect.Array:
		if rest, ok := bytes.CutPrefix(b, []byte("null")); ok && kind == reflect.Slice {
			v.SetZero()
			return rest, true
		}
		if b, ok = bytes.CutPrefix(b, []byte("[")); !ok {
			return nil, false
		}
		s := v // an array decodes in place, a slice into a new one
		if kind == reflect.Slice {
			s = reflect.MakeSlice(p.typ, 0, 0)
		}
		n := 0
		for more := len(b) > 0 && b[0] != ']'; more; n++ {
			if kind == reflect.Slice {
				s = reflect.Append(s, reflect.Zero(p.elem.typ))
			} else if n == s.Len() {
				return nil, false
			}
			if b, ok = p.elem.decode(b, s.Index(n)); !ok {
				return nil, false
			}
			b, more = bytes.CutPrefix(b, []byte(","))
		}
		if n != s.Len() {
			return nil, false
		}
		if kind == reflect.Slice {
			v.Set(s)
		}
		return bytes.CutPrefix(b, []byte("]"))
	case reflect.Uint64:
		var u uint64
		n := 0
		for ; n < len(b) && '0' <= b[n] && b[n] <= '9'; n++ {
			d := uint64(b[n] - '0')
			if u > (math.MaxUint64-d)/10 || n == 1 && b[0] == '0' {
				return nil, false // overflows, or a leading zero
			}
			u = u*10 + d
		}
		if n == 0 {
			return nil, false
		}
		v.SetUint(u)
		return b[n:], true
	case reflect.Float64:
		n := 0
		for n < len(b) && bytes.IndexByte([]byte("+-.0123456789Ee"), b[n]) >= 0 {
			n++
		}
		f, err := strconv.ParseFloat(string(b[:n]), 64)
		if err != nil || !json.Valid(b[:n]) { // JSON's number grammar, and float64's range
			return nil, false
		}
		v.SetFloat(f)
		return b[n:], true
	default: // a string with no escapes: its bytes are the value
		rest, ok := bytes.CutPrefix(b, []byte(`"`))
		n := bytes.IndexByte(rest, '"')
		if !ok || n < 0 || !utf8.Valid(rest[:n]) ||
			bytes.ContainsFunc(rest[:n], func(r rune) bool { return r == '\\' || r < 0x20 }) {
			return nil, false
		}
		v.SetString(string(rest[:n]))
		return rest[n+1:], true
	}
}
