// Package provenance defines the business provenance graph data model:
// typed records (Data, Task, Resource, Custom nodes and Relation edges),
// the provenance graph with adjacency indexes, the provenance data model
// (type definitions used to generate the execution object model), and the
// indexed node and edge filters internal control points are verified with.
//
// The model follows Section II-B of Doganata (ICDE 2011): four node record
// classes plus relation records for edges, each carrying a set of typed
// attributes extracted from application events by recorder clients.
package provenance

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the primitive attribute types supported by the
// provenance data model. The set mirrors what the paper's XML rows carry:
// strings, numbers, booleans and timestamps.
type Kind int

const (
	KindInvalid Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindTime
)

var kindNames = [...]string{
	KindInvalid: "invalid",
	KindString:  "string",
	KindInt:     "int",
	KindFloat:   "float",
	KindBool:    "bool",
	KindTime:    "time",
}

// String returns the lower-case name of the kind, e.g. "string".
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind converts a kind name produced by Kind.String back to a Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s && Kind(k) != KindInvalid {
			return Kind(k), nil
		}
	}
	return KindInvalid, fmt.Errorf("provenance: unknown kind %q", s)
}

// Value is a dynamically typed attribute value. The zero Value has
// KindInvalid and represents "absent"; partially managed processes
// routinely produce records with missing attributes, so absence is a
// first-class state rather than an error.
type Value struct {
	kind Kind
	str  string
	num  int64
	flt  float64
	b    bool
	t    time.Time
}

// String constructs a string value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Int constructs an integer value.
func Int(i int64) Value { return Value{kind: KindInt, num: i} }

// Float constructs a floating point value.
func Float(f float64) Value { return Value{kind: KindFloat, flt: f} }

// Bool constructs a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Time constructs a timestamp value, stored in UTC.
func Time(t time.Time) Value { return Value{kind: KindTime, t: t.UTC()} }

// Kind reports the kind of the value; KindInvalid means absent.
func (v Value) Kind() Kind { return v.kind }

// IsZero reports whether the value is absent.
func (v Value) IsZero() bool { return v.kind == KindInvalid }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.str }

// IntVal returns the integer payload. It is only meaningful for KindInt.
func (v Value) IntVal() int64 { return v.num }

// FloatVal returns the float payload; for KindInt it widens the integer.
func (v Value) FloatVal() float64 {
	if v.kind == KindInt {
		return float64(v.num)
	}
	return v.flt
}

// BoolVal returns the boolean payload. It is only meaningful for KindBool.
func (v Value) BoolVal() bool { return v.b }

// TimeVal returns the timestamp payload. Only meaningful for KindTime.
func (v Value) TimeVal() time.Time { return v.t }

// Text renders the value as the lexical form stored in the XML rows of
// Table 1. Absent values render as the empty string.
func (v Value) Text() string {
	switch v.kind {
	case KindString:
		return v.str
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	case KindFloat:
		return strconv.FormatFloat(v.flt, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindTime:
		return v.t.UTC().Format(time.RFC3339Nano)
	default:
		return ""
	}
}

// ParseValue parses the lexical form produced by Text for the given kind.
func ParseValue(kind Kind, text string) (Value, error) {
	switch kind {
	case KindString:
		return String(text), nil
	case KindInt:
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("provenance: bad int %q: %v", text, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Value{}, fmt.Errorf("provenance: bad float %q: %v", text, err)
		}
		return Float(f), nil
	case KindBool:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return Value{}, fmt.Errorf("provenance: bad bool %q: %v", text, err)
		}
		return Bool(b), nil
	case KindTime:
		t, err := time.Parse(time.RFC3339Nano, text)
		if err != nil {
			return Value{}, fmt.Errorf("provenance: bad time %q: %v", text, err)
		}
		return Time(t), nil
	default:
		return Value{}, fmt.Errorf("provenance: cannot parse kind %v", kind)
	}
}

// Equal reports deep equality of two values. Int and Float compare across
// kinds numerically so that a rule written with an integer literal matches
// a float attribute.
func (v Value) Equal(w Value) bool {
	if v.kind == w.kind {
		switch v.kind {
		case KindString:
			return v.str == w.str
		case KindInt:
			return v.num == w.num
		case KindFloat:
			return v.flt == w.flt
		case KindBool:
			return v.b == w.b
		case KindTime:
			return v.t.Equal(w.t)
		default:
			return true // both absent
		}
	}
	if v.isNumeric() && w.isNumeric() {
		return v.FloatVal() == w.FloatVal()
	}
	return false
}

func (v Value) isNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare orders two values: -1 if v<w, 0 if equal, +1 if v>w. It returns
// an error when the kinds are not comparable (e.g. bool vs string).
func (v Value) Compare(w Value) (int, error) {
	switch {
	case v.isNumeric() && w.isNumeric():
		a, b := v.FloatVal(), w.FloatVal()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		}
		return 0, nil
	case v.kind == KindString && w.kind == KindString:
		return strings.Compare(v.str, w.str), nil
	case v.kind == KindTime && w.kind == KindTime:
		switch {
		case v.t.Before(w.t):
			return -1, nil
		case v.t.After(w.t):
			return 1, nil
		}
		return 0, nil
	case v.kind == KindBool && w.kind == KindBool:
		switch {
		case !v.b && w.b:
			return -1, nil
		case v.b && !w.b:
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("provenance: cannot compare %v to %v", v.kind, w.kind)
}

// Key returns a stable string usable as an index key for the value. Keys
// of different kinds never collide because of the kind prefix; numeric
// kinds share a prefix so int/float lookups agree with Equal.
func (v Value) Key() string {
	switch v.kind {
	case KindString:
		return "s:" + v.str
	case KindInt:
		return "n:" + strconv.FormatFloat(float64(v.num), 'g', -1, 64)
	case KindFloat:
		return "n:" + strconv.FormatFloat(v.flt, 'g', -1, 64)
	case KindBool:
		return "b:" + strconv.FormatBool(v.b)
	case KindTime:
		return "t:" + v.t.UTC().Format(time.RFC3339Nano)
	default:
		return ""
	}
}
