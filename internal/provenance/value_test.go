package provenance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	ts := time.Date(2011, 4, 11, 9, 30, 0, 0, time.UTC)
	cases := []struct {
		v    Value
		kind Kind
		text string
	}{
		{String("REQ001"), KindString, "REQ001"},
		{Int(42), KindInt, "42"},
		{Float(3.5), KindFloat, "3.5"},
		{Bool(true), KindBool, "true"},
		{Time(ts), KindTime, "2011-04-11T09:30:00Z"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("kind of %v = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.IsZero() {
			t.Errorf("%v reported zero", c.v)
		}
		if got := c.v.Text(); got != c.text {
			t.Errorf("Text() = %q, want %q", got, c.text)
		}
	}
	var zero Value
	if !zero.IsZero() || zero.Kind() != KindInvalid || zero.Text() != "" {
		t.Errorf("zero value misbehaves: %v", zero)
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	vals := []Value{
		String(""), String("hello world"), String("<xml & stuff>"),
		Int(0), Int(-7), Int(math.MaxInt64),
		Float(0), Float(-2.25), Float(1e100),
		Bool(true), Bool(false),
		Time(time.Date(1999, 12, 31, 23, 59, 59, 123456789, time.UTC)),
	}
	for _, v := range vals {
		got, err := ParseValue(v.Kind(), v.Text())
		if err != nil {
			t.Fatalf("ParseValue(%v, %q): %v", v.Kind(), v.Text(), err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip of %v gave %v", v, got)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	cases := []struct {
		kind Kind
		text string
	}{
		{KindInt, "abc"},
		{KindFloat, "1.2.3"},
		{KindBool, "maybe"},
		{KindTime, "yesterday"},
		{KindInvalid, "x"},
	}
	for _, c := range cases {
		if _, err := ParseValue(c.kind, c.text); err == nil {
			t.Errorf("ParseValue(%v, %q) succeeded, want error", c.kind, c.text)
		}
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindString, KindInt, KindFloat, KindBool, KindTime} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("widget"); err == nil {
		t.Error("ParseKind accepted garbage")
	}
	if _, err := ParseKind("invalid"); err == nil {
		t.Error("ParseKind accepted 'invalid'")
	}
}

func TestValueEqualCrossNumeric(t *testing.T) {
	if !Int(3).Equal(Float(3)) {
		t.Error("Int(3) != Float(3)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("Int(3) == Float(3.5)")
	}
	if Int(1).Equal(Bool(true)) {
		t.Error("Int(1) == Bool(true): kinds must not coerce")
	}
	if String("true").Equal(Bool(true)) {
		t.Error("string/bool coerced")
	}
}

func TestValueCompare(t *testing.T) {
	lt := [][2]Value{
		{Int(1), Int(2)},
		{Int(1), Float(1.5)},
		{Float(-1), Int(0)},
		{String("a"), String("b")},
		{Bool(false), Bool(true)},
		{Time(time.Unix(1, 0)), Time(time.Unix(2, 0))},
	}
	for _, p := range lt {
		c, err := p[0].Compare(p[1])
		if err != nil || c != -1 {
			t.Errorf("Compare(%v,%v) = %d, %v; want -1", p[0], p[1], c, err)
		}
		c, err = p[1].Compare(p[0])
		if err != nil || c != 1 {
			t.Errorf("Compare(%v,%v) = %d, %v; want 1", p[1], p[0], c, err)
		}
	}
	if c, err := Int(5).Compare(Int(5)); err != nil || c != 0 {
		t.Errorf("Compare equal ints = %d, %v", c, err)
	}
	if _, err := String("x").Compare(Int(1)); err == nil {
		t.Error("string/int compare should fail")
	}
	if _, err := Bool(true).Compare(Time(time.Now())); err == nil {
		t.Error("bool/time compare should fail")
	}
}

func TestValueKeyDistinguishesKinds(t *testing.T) {
	// "1" as a string must not collide with the integer 1, but Int(1) and
	// Float(1) must share a key because Equal treats them as equal.
	if String("1").Key() == Int(1).Key() {
		t.Error("string/int key collision")
	}
	if Int(1).Key() != Float(1).Key() {
		t.Error("int/float keys disagree for equal values")
	}
	if String("true").Key() == Bool(true).Key() {
		t.Error("string/bool key collision")
	}
}

// Property: for any string, round-tripping through Text/ParseValue is the
// identity, and Key equality matches Equal.
func TestValueStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		v := String(s)
		got, err := ParseValue(KindString, v.Text())
		return err == nil && got.Equal(v) && got.Key() == v.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: integer round trip and ordering consistency with Go's <.
func TestValueIntProperties(t *testing.T) {
	roundTrip := func(i int64) bool {
		v := Int(i)
		got, err := ParseValue(KindInt, v.Text())
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Error(err)
	}
	ordered := func(a, b int32) bool {
		// int32 keeps values inside float64's exact range, matching the
		// numeric comparison semantics.
		c, err := Int(int64(a)).Compare(Int(int64(b)))
		if err != nil {
			return false
		}
		switch {
		case a < b:
			return c == -1
		case a > b:
			return c == 1
		default:
			return c == 0
		}
	}
	if err := quick.Check(ordered, nil); err != nil {
		t.Error(err)
	}
}

// Property: Equal implies identical Keys (index lookups agree with Equal).
func TestValueKeyConsistencyProperty(t *testing.T) {
	f := func(a, b int32) bool {
		va, vb := Int(int64(a)), Float(float64(b))
		return va.Equal(vb) == (va.Key() == vb.Key())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A Value is 32 bytes with one pointer word: a record's attribute slice
// holds its values inline.
func TestValueIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 32 {
		t.Fatalf("Value is %d bytes, want at most 32", n)
	}
}

// TimeVal gives back the instant in UTC, without a monotonic reading, so
// == agrees with Equal on what it returns.
func TestValueTimeVal(t *testing.T) {
	zoned := time.Date(2011, 4, 12, 17, 5, 9, 123456789, time.FixedZone("x", 3600))
	for _, ts := range []time.Time{zoned, time.Now(), {}, time.Unix(-1, 5), time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)} {
		got := Time(ts).TimeVal()
		if !got.Equal(ts) || got != ts.UTC().Round(0) || got.Location() != time.UTC {
			t.Errorf("Time(%v).TimeVal() = %v", ts, got)
		}
	}
	if !Time(zoned).Equal(Time(zoned.UTC())) || Time(zoned).Key() != Time(zoned.UTC()).Key() {
		t.Error("a zone changes the time value")
	}
	for _, v := range []Value{{}, String("x"), Int(7), Float(1), Bool(true)} {
		if !v.TimeVal().IsZero() {
			t.Errorf("%v.TimeVal() = %v", v.Kind(), v.TimeVal())
		}
	}
	if Time(time.Unix(0, 0)).IntVal() != 0 || Float(2).BoolVal() || Bool(true).IntVal() != 0 {
		t.Error("an accessor reads another kind's payload")
	}
}

// numericCorpus holds the numbers where float64 and int64 part ways:
// integers beyond 2^53, ±0, NaN, the int64 edges and integral floats.
func numericCorpus() []Value {
	vals := []Value{
		Float(math.NaN()), Float(math.Copysign(0, -1)), Float(0), Int(0),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(0.5), Float(-0.5), Float(1e6), Int(1e6),
		Float(1e300), Float(-1e300), Float(1 << 63), Float(-1 << 63),
		Int(math.MaxInt64), Int(math.MinInt64), Int(math.MinInt64 + 1),
	}
	for _, i := range []int64{1 << 53, 1<<53 + 1, 1<<53 - 1, 1<<53 + 2, -(1 << 53) - 1, 1 << 62, 1<<62 + 1, 3} {
		vals = append(vals, Int(i), Int(-i), Float(float64(i)), Float(-float64(i)), Float(float64(i)+0.5))
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 40; k++ {
		i := rng.Int63n(1<<55) - 1<<54
		vals = append(vals, Int(i), Float(float64(i)))
	}
	return vals
}

// Property: over numbers, two values share a Key exactly when they are
// Equal, NaN has no key, and Compare is 0 exactly when Equal holds — so an
// index lookup by key, a scan by Equal and a range test by Compare all
// agree on which records match.
func TestNumericKeyEqualCompareAgree(t *testing.T) {
	vals := numericCorpus()
	for _, a := range vals {
		if f := a.FloatVal(); a.Kind() == KindFloat && f != f {
			if a.Key() != "" || a.Equal(a) {
				t.Errorf("NaN: key %q, Equal(itself) %v", a.Key(), a.Equal(a))
			}
		}
		for _, b := range vals {
			eq := a.Equal(b)
			if keyed := a.Key() != "" && a.Key() == b.Key(); keyed != eq {
				t.Errorf("%s %v / %s %v: Equal %v, keys %q %q", a.Kind(), a.Text(), b.Kind(), b.Text(), eq, a.Key(), b.Key())
			}
			if eq != b.Equal(a) {
				t.Errorf("%v / %v: Equal is not symmetric", a.Text(), b.Text())
			}
			c, err := a.Compare(b)
			if (err == nil && c == 0) != eq {
				t.Errorf("%s %v / %s %v: Compare %d, %v but Equal %v", a.Kind(), a.Text(), b.Kind(), b.Text(), c, err, eq)
			}
			if d, err2 := b.Compare(a); (err == nil) != (err2 == nil) || d != -c {
				t.Errorf("%v / %v: Compare %d, reversed %d", a.Text(), b.Text(), c, d)
			}
		}
	}
	if c, err := Int(1<<53 + 1).Compare(Float(1 << 53)); err != nil || c != 1 {
		t.Errorf("Compare(2^53+1, 2^53.0) = %d, %v; want 1", c, err)
	}
}
