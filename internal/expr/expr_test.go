package expr

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustEval(t *testing.T, src string, env Env) Value {
	t.Helper()
	v, err := EvalString(src, env)
	if err != nil {
		t.Fatalf("EvalString(%q): %v", src, err)
	}
	return v
}

func TestLiterals(t *testing.T) {
	tests := []struct {
		src  string
		want Value
	}{
		{"42", Number(42)},
		{"3.5", Number(3.5)},
		{"1e3", Number(1000)},
		{"'hello'", String("hello")},
		{`"world"`, String("world")},
		{"true", Bool(true)},
		{"false", Bool(false)},
		{"null", Null},
		{"'it\\'s'", String("it's")},
		{"'a\\nb'", String("a\nb")},
	}
	for _, tt := range tests {
		got := mustEval(t, tt.src, nil)
		if !got.Equal(tt.want) || got.Kind() != tt.want.Kind() {
			t.Errorf("%q = %#v, want %#v", tt.src, got, tt.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		src  string
		want float64
	}{
		{"1+2", 3},
		{"2*3+4", 10},
		{"2+3*4", 14},
		{"(2+3)*4", 20},
		{"10/4", 2.5},
		{"10%3", 1},
		{"-5+2", -3},
		{"--5", 5},
		{"2*-3", -6},
	}
	for _, tt := range tests {
		got := mustEval(t, tt.src, nil)
		n, ok := got.AsNumber()
		if !ok || n != tt.want {
			t.Errorf("%q = %#v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	env := MapEnv{"size": Number(1024), "name": String("model.dat"), "flag": Bool(true)}
	tests := []struct {
		src  string
		want bool
	}{
		{"$size > 1000", true},
		{"$size >= 1024", true},
		{"$size < 1024", false},
		{"$size == 1024", true},
		{"$size != 1024", false},
		{"$name == 'model.dat'", true},
		{"$name = 'model.dat'", true}, // single '=' alias
		{"$flag && $size > 0", true},
		{"$flag && $size > 9999", false},
		{"!$flag || $size == 1024", true},
		{"$missing == null", true},
		{"$missing != null", false},
		{"'abc' < 'abd'", true},
		{"'10' == 10", true},  // numeric-string coercion
		{"'10' < '9'", false}, // both numeric strings → numeric order
	}
	for _, tt := range tests {
		got := mustEval(t, tt.src, env)
		if got.AsBool() != tt.want {
			t.Errorf("%q = %#v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// Division by zero on the right side must not be reached.
	if v := mustEval(t, "false && 1/0 > 0", nil); v.AsBool() {
		t.Errorf("short-circuit && failed")
	}
	if v := mustEval(t, "true || 1/0 > 0", nil); !v.AsBool() {
		t.Errorf("short-circuit || failed")
	}
}

func TestBuiltins(t *testing.T) {
	env := MapEnv{"path": String("/grid/scec/run7/wave.dat")}
	tests := []struct {
		src  string
		want Value
	}{
		{"len('abcd')", Number(4)},
		{"contains($path, 'scec')", Bool(true)},
		{"startsWith($path, '/grid')", Bool(true)},
		{"endsWith($path, '.dat')", Bool(true)},
		{"ext($path)", String(".dat")},
		{"base($path)", String("wave.dat")},
		{"ext('noext')", String("")},
		{"ext('/a.b/file')", String("")},
		{"lower('AbC')", String("abc")},
		{"upper('AbC')", String("ABC")},
		{"trim('  x ')", String("x")},
		{"num('42')+1", Number(43)},
		{"str(42)", String("42")},
		{"min(3,1,2)", Number(1)},
		{"max(3,1,2)", Number(3)},
		{"abs(-2)", Number(2)},
		{"floor(2.7)", Number(2)},
		{"ceil(2.1)", Number(3)},
		{"coalesce($missing, 'dflt')", String("dflt")},
		{"coalesce($path, 'dflt')", String("/grid/scec/run7/wave.dat")},
	}
	for _, tt := range tests {
		got := mustEval(t, tt.src, env)
		if !got.Equal(tt.want) {
			t.Errorf("%q = %#v, want %#v", tt.src, got, tt.want)
		}
	}
}

func TestStringConcat(t *testing.T) {
	env := MapEnv{"dir": String("/grid"), "n": Number(7)}
	v := mustEval(t, "$dir + '/run' + $n", env)
	if got := v.AsString(); got != "/grid/run7" {
		t.Errorf("concat = %q, want /grid/run7", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "   ", "1 +", "(1", "1)", "'unterminated", "${unclosed",
		"$", "nosuchfn(1)", "len()", "len(1,2)", "1 @ 2", "'bad\\q'",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	bad := []string{"1/0", "1%0", "-'abc'", "'a' - 'b'", "null < 1", "num('zz')"}
	for _, src := range bad {
		if _, err := EvalString(src, nil); err == nil {
			t.Errorf("EvalString(%q) succeeded, want error", src)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("1 + + 2")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("want *SyntaxError, got %T: %v", err, err)
	}
	if se.Src != "1 + + 2" || !strings.Contains(se.Error(), "offset") {
		t.Errorf("unexpected error content: %v", se)
	}
}

func TestInterpolate(t *testing.T) {
	env := MapEnv{"run": String("7"), "site": String("sdsc"), "n": Number(3)}
	tests := []struct {
		in, want string
	}{
		{"plain", "plain"},
		{"/grid/$site/run$run", "/grid/sdsc/run7"},
		{"/grid/${site}x/run${run}", "/grid/sdscx/run7"},
		{"$missing-end", "-end"},
		{"$$literal", "$literal"},
		{"cost=$n", "cost=3"},
		{"trailing $", "trailing $"},
		{"$-", "$-"},
	}
	for _, tt := range tests {
		got, err := Interpolate(tt.in, env)
		if err != nil {
			t.Fatalf("Interpolate(%q): %v", tt.in, err)
		}
		if got != tt.want {
			t.Errorf("Interpolate(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
	if _, err := Interpolate("${unclosed", env); err == nil {
		t.Errorf("Interpolate with unterminated ${ should fail")
	}
}

// TestNonASCIINames: a name is read a rune at a time, so "$é" names "é"
// in a condition and in a parameter alike, as "${é}" always did.
func TestNonASCIINames(t *testing.T) {
	env := MapEnv{"é": String("accent"), "aé": String("mixed"), "naïve": Number(2)}
	for src, want := range map[string]Value{
		`$é == "accent"`: Bool(true),
		`${é} + "!"`:     String("accent!"),
		"$naïve + 1":     Number(3),
		`é == "accent"`:  Bool(true),
	} {
		if got := mustEval(t, src, env); !got.Equal(want) {
			t.Errorf("%s = %#v, want %#v", src, got, want)
		}
	}
	for in, want := range map[string]string{"/p/$aé/q": "/p/mixed/q", "$é-$naïve": "accent-2", "/p/${aé}/q": "/p/mixed/q"} {
		if got, err := Interpolate(in, env); err != nil || got != want {
			t.Errorf("Interpolate(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
}

func TestValueConversions(t *testing.T) {
	if Number(3).AsString() != "3" {
		t.Errorf("integral number should print without decimal point")
	}
	if Number(3.25).AsString() != "3.25" {
		t.Errorf("fractional number formatting")
	}
	if !String("7").Equal(Number(7)) {
		t.Errorf("numeric string equality")
	}
	if Bool(true).AsString() != "true" || Bool(false).AsString() != "false" {
		t.Errorf("bool string form")
	}
	if n, ok := Bool(true).AsNumber(); !ok || n != 1 {
		t.Errorf("bool→number")
	}
	if Null.AsBool() || !Null.IsNull() {
		t.Errorf("null truthiness")
	}
	if String("false").AsBool() || String("0").AsBool() || !String("yes").AsBool() {
		t.Errorf("string truthiness")
	}
	if Kind(99).String() == "" {
		t.Errorf("unknown kind should still print")
	}
}

// Property: Equal is reflexive and symmetric over arbitrary values.
func TestQuickEqualSymmetric(t *testing.T) {
	f := func(a, b float64, s1, s2 string, pick int) bool {
		vals := []Value{Number(a), Number(b), String(s1), String(s2), Bool(pick%2 == 0), Null}
		x := vals[abs(pick)%len(vals)]
		y := vals[abs(pick*7+1)%len(vals)]
		return x.Equal(x) && (x.Equal(y) == y.Equal(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric for comparable values.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		x, y := Number(a), Number(b)
		c1, err1 := x.Compare(y)
		c2, err2 := y.Compare(x)
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Interpolate with no '$' is the identity.
func TestQuickInterpolateIdentity(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsRune(s, '$') {
			return true // skip; covered by table tests
		}
		out, err := Interpolate(s, nil)
		return err == nil && out == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: parsing a formatted number literal evaluates to that number.
func TestQuickNumberRoundTrip(t *testing.T) {
	f := func(n int32) bool {
		v, err := EvalString(Int(int64(n)).AsString(), nil)
		if err != nil {
			return false
		}
		got, ok := v.AsNumber()
		return ok && got == float64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestExprSrc(t *testing.T) {
	e, err := Parse("$a > 1")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "$a > 1" {
		t.Errorf("String should return original source")
	}
}

func BenchmarkEvalCondition(b *testing.B) {
	e, err := Parse("$size > 1024 && endsWith($name, '.dat') || $retries < 3")
	if err != nil {
		b.Fatal(err)
	}
	env := MapEnv{"size": Number(2048), "name": String("wave.dat"), "retries": Number(1)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Eval(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpolate(b *testing.B) {
	env := MapEnv{"site": String("sdsc"), "run": Number(7)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Interpolate("/grid/$site/run${run}/out.dat", env); err != nil {
			b.Fatal(err)
		}
	}
}
