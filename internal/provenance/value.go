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
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the primitive attribute types supported by the
// provenance data model. The set mirrors what the paper's XML rows carry:
// strings, numbers, booleans and timestamps.
type Kind uint8

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
	if int(k) >= len(kindNames) {
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
//
// A Value is 32 bytes with one pointer: num holds an int, a float's IEEE
// bits, a bool, or a time's Unix seconds (nsec its nanoseconds, always
// UTC), and str holds a string.
type Value struct {
	str  string
	num  int64
	nsec int32
	kind Kind
}

// String constructs a string value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Int constructs an integer value.
func Int(i int64) Value { return Value{kind: KindInt, num: i} }

// Float constructs a floating point value.
func Float(f float64) Value { return Value{kind: KindFloat, num: int64(math.Float64bits(f))} }

// Bool constructs a boolean value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.num = 1
	}
	return v
}

// Time constructs a timestamp value, stored in UTC.
func Time(t time.Time) Value {
	return Value{kind: KindTime, num: t.Unix(), nsec: int32(t.Nanosecond())}
}

// Kind reports the kind of the value; KindInvalid means absent.
func (v Value) Kind() Kind { return v.kind }

// IsZero reports whether the value is absent.
func (v Value) IsZero() bool { return v.kind == KindInvalid }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.str }

// IntVal returns the integer payload. It is only meaningful for KindInt.
func (v Value) IntVal() int64 {
	if v.Kind() != KindInt {
		return 0
	}
	return v.num
}

// FloatVal returns the float payload; for KindInt it widens the integer.
func (v Value) FloatVal() float64 {
	switch v.Kind() {
	case KindInt:
		return float64(v.num)
	case KindFloat:
		return math.Float64frombits(uint64(v.num))
	}
	return 0
}

// BoolVal returns the boolean payload. It is only meaningful for KindBool.
func (v Value) BoolVal() bool { return v.Kind() == KindBool && v.num != 0 }

// TimeVal returns the timestamp payload in UTC. Only meaningful for
// KindTime.
func (v Value) TimeVal() time.Time {
	if v.Kind() != KindTime {
		return time.Time{}
	}
	return time.Unix(v.num, int64(v.nsec)).UTC()
}

// Text renders the value as the lexical form stored in the XML rows of
// Table 1. Absent values render as the empty string.
func (v Value) Text() string {
	switch v.Kind() {
	case KindString:
		return v.str
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	case KindFloat:
		return strconv.FormatFloat(v.FloatVal(), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.BoolVal())
	case KindTime:
		return v.TimeVal().Format(time.RFC3339Nano)
	default:
		return ""
	}
}

// ParseValue parses the lexical form produced by Text for the given kind.
// For every kind but KindString the value, and the error, keep no
// reference to text, so a caller may pass a string that aliases a buffer
// it reuses.
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
// kinds numerically, and exactly, so that a rule written with an integer
// literal matches a float attribute. NaN equals nothing, itself included,
// and -0 equals 0.
func (v Value) Equal(w Value) bool {
	if v.kind == w.kind {
		switch v.Kind() {
		case KindString:
			return v.str == w.str
		case KindFloat:
			return v.FloatVal() == w.FloatVal()
		default: // int, bool, time (UTC seconds and nanoseconds), absent
			return v.num == w.num && v.nsec == w.nsec
		}
	}
	c, ok := v.cmpNum(w)
	return ok && c == 0
}

func (v Value) isNumeric() bool { return v.Kind() == KindInt || v.Kind() == KindFloat }

// cmpNum orders two numeric values exactly; ok is false when either is
// not numeric or is NaN, which is unordered.
func (v Value) cmpNum(w Value) (c int, ok bool) {
	if !v.isNumeric() || !w.isNumeric() {
		return 0, false
	}
	switch {
	case v.Kind() == KindInt && w.Kind() == KindInt:
		return cmp.Compare(v.num, w.num), true
	case v.Kind() == KindInt:
		c, ok = cmpIntFloat(v.num, w.FloatVal())
		return c, ok
	case w.Kind() == KindInt:
		c, ok = cmpIntFloat(w.num, v.FloatVal())
		return -c, ok
	}
	a, b := v.FloatVal(), w.FloatVal()
	if a != a || b != b {
		return 0, false
	}
	return cmp.Compare(a, b), true
}

// cmpIntFloat orders i against f without rounding i to a float; ok is
// false when f is NaN.
func cmpIntFloat(i int64, f float64) (int, bool) {
	switch {
	case f != f:
		return 0, false
	case f >= 1<<63:
		return -1, true
	case f < -1<<63:
		return 1, true
	}
	t := math.Trunc(f) // in [-2^63, 2^63): int64(t) is exact
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c, true
	}
	return cmp.Compare(t, f), true
}

// Compare orders two values: -1 if v<w, 0 if equal, +1 if v>w. It returns
// an error when the kinds are not comparable (e.g. bool vs string) or a
// number is NaN. Compare is 0 exactly when Equal holds.
func (v Value) Compare(w Value) (int, error) {
	switch {
	case v.isNumeric() && w.isNumeric():
		if c, ok := v.cmpNum(w); ok {
			return c, nil
		}
		return 0, fmt.Errorf("provenance: NaN is unordered")
	case v.Kind() != w.Kind():
	case v.Kind() == KindString:
		return strings.Compare(v.str, w.str), nil
	case v.Kind() == KindTime:
		if c := cmp.Compare(v.num, w.num); c != 0 {
			return c, nil
		}
		return cmp.Compare(v.nsec, w.nsec), nil
	case v.Kind() == KindBool:
		return cmp.Compare(v.num, w.num), nil
	}
	return 0, fmt.Errorf("provenance: cannot compare %v to %v", v.Kind(), w.Kind())
}

// Key returns a stable string usable as an index key for the value: two
// values have the same key exactly when they are Equal. Keys of different
// kinds never collide because of the kind prefix; numeric kinds share a
// prefix, and an integral number keys to its decimal integer whichever
// kind holds it, so int/float lookups agree with Equal. NaN, equal to
// nothing, has no key: Key returns "" for it, as for an absent value.
func (v Value) Key() string {
	switch v.Kind() {
	case KindString:
		return "s:" + v.str
	case KindInt:
		return "n:" + strconv.FormatInt(v.num, 10)
	case KindFloat:
		f := v.FloatVal()
		switch {
		case f != f:
			return ""
		case f == math.Trunc(f) && f >= -1<<63 && f < 1<<63:
			return "n:" + strconv.FormatInt(int64(f), 10) // -0 keys as 0
		}
		return "n:" + strconv.FormatFloat(f, 'g', -1, 64)
	case KindBool:
		return "b:" + strconv.FormatBool(v.BoolVal())
	case KindTime:
		return "t:" + v.Text()
	default:
		return ""
	}
}
