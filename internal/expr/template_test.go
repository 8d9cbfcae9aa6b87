package expr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// templateEnv binds every shape of value a template can meet: text, an
// integer, a fraction, a bool, null, and a name with a dot in it.
var templateEnv = MapEnv{
	"a": String("alpha"), "it": String("17"), "n": Number(3), "f": Number(2.5),
	"ok": Bool(true), "nil": Null, "a.b": String("dotted"), "é": String("accent"),
}

// Interpolate is the one-shot scan Template replaced, kept as the
// reference CompileTemplate(s).Render is held to: it substitutes $name
// and ${name} references in s with the string form of their bound
// values, unbound variables with the empty string, and reads "$$" as a
// literal dollar sign.
func Interpolate(s string, env Env) (string, error) {
	if !strings.ContainsRune(s, '$') {
		return s, nil
	}
	if env == nil {
		env = MapEnv(nil)
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '$' {
			sb.WriteByte(c)
			i++
			continue
		}
		// c == '$'
		if i+1 >= len(s) {
			sb.WriteByte('$')
			break
		}
		next := s[i+1]
		switch {
		case next == '$':
			sb.WriteByte('$')
			i += 2
		case next == '{':
			end := strings.IndexByte(s[i+2:], '}')
			if end < 0 {
				return "", fmt.Errorf("expr: unterminated ${...} in %q", s)
			}
			name := s[i+2 : i+2+end]
			if name == "" {
				return "", fmt.Errorf("expr: empty ${} in %q", s)
			}
			if v, ok := env.Lookup(name); ok {
				sb.WriteString(v.AsString())
			}
			i += 2 + end + 1
		case startsIdent(s, i+1):
			j := identEnd(s, i+1)
			name := s[i+1 : j]
			if v, ok := env.Lookup(name); ok {
				sb.WriteString(v.AsString())
			}
			i = j
		default:
			sb.WriteByte('$')
			i++
		}
	}
	return sb.String(), nil
}

// sameAsInterpolate holds CompileTemplate(s).Render(env) to the one-shot
// reference in value and in error text.
func sameAsInterpolate(t *testing.T, s string, env Env) {
	t.Helper()
	want, wantErr := Interpolate(s, env)
	tmpl := CompileTemplate(s)
	if tmpl.Src() != s {
		t.Errorf("CompileTemplate(%q).Src() = %q", s, tmpl.Src())
	}
	for pass := 0; pass < 2; pass++ { // a template is rendered many times
		got, err := tmpl.Render(env)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("Render(%q) error = %v, Interpolate gives %v", s, err, wantErr)
		}
		if got != want {
			t.Fatalf("Render(%q) = %q, Interpolate gives %q", s, got, want)
		}
	}
}

var templateSeeds = []string{
	"", "plain", "$$", "$$$$", "a$$b$$c", "${}", "${a", "${a}", "${a}${a}", "x${a}y$it-z",
	"trailing $", "$", "$1x", "$-", "$a.b/c", "${a.b}", "$missing-end", "${missing}",
	"/grid/${it}.dat", "cost=$n f=$f ok=$ok nil=$nil", "$é", "/p/$aé/q", "$naïve", "héllo $a wörld ${it}",
	"\xff$a\xfe", "${a}${", "$$${a}", "$a$", strings.Repeat("long-$a-", 40),
}

// validRendering: a template of valid UTF-8 rendered from valid values
// is valid UTF-8 — a "$" before a multi-byte name must not split it.
func validRendering(t *testing.T, s string, env MapEnv) {
	t.Helper()
	if !utf8.ValidString(s) {
		return
	}
	for _, v := range env {
		if !utf8.ValidString(v.AsString()) {
			return
		}
	}
	if got, err := Interpolate(s, env); err == nil && !utf8.ValidString(got) {
		t.Fatalf("Interpolate(%q) = %q: not valid UTF-8", s, got)
	}
}

func TestTemplateMatchesInterpolate(t *testing.T) {
	for _, s := range templateSeeds {
		sameAsInterpolate(t, s, templateEnv)
		sameAsInterpolate(t, s, nil)
		validRendering(t, s, templateEnv)
	}
}

func FuzzTemplate(f *testing.F) {
	for _, s := range templateSeeds {
		f.Add(s, "alpha", 3.0)
	}
	f.Fuzz(func(t *testing.T, s, text string, num float64) {
		env := MapEnv{"a": String(text), "it": Number(num), "a.b": Bool(num > 0)}
		sameAsInterpolate(t, s, env)
		validRendering(t, s, env)
	})
}

// TestTemplateAllocs: a constant costs nothing to render, a lone
// reference hands back the bound string, and anything else is the one
// result string; the append form allocates nothing at all.
func TestTemplateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	for _, tc := range []struct {
		src  string
		want float64
	}{
		{"/grid/allocs/tagged.dat", 0},
		{"a$$b", 0},
		{"${a}", 0},
		{"/grid/pre/${it}.dat", 1},
		{"/grid/work/$n-${it}.dat", 1},
	} {
		tmpl := CompileTemplate(tc.src)
		got := testing.AllocsPerRun(100, func() {
			if _, err := tmpl.Render(templateEnv); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("Render(%q): %.0f allocations, want %.0f", tc.src, got, tc.want)
		}
		buf := make([]byte, 0, 64)
		if got := testing.AllocsPerRun(100, func() {
			if _, _, err := tmpl.Append(buf[:0], templateEnv); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("Append(%q): %.0f allocations, want 0", tc.src, got)
		}
	}
}

// BenchmarkTemplateRender renders a parameter of three pieces, as a step
// inside a loop binds it: Render makes the string, Append only fills a
// buffer the caller keeps.
func BenchmarkTemplateRender(b *testing.B) {
	tmpl := CompileTemplate("/grid/work/$n-${it}.dat")
	b.Run("Render", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tmpl.Render(templateEnv); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Append", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 64)
		for i := 0; i < b.N; i++ {
			if _, _, err := tmpl.Append(buf[:0], templateEnv); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAsNumberStrings pins AsNumber on strings to strconv.ParseFloat of
// the trimmed text, the definition it had before text that cannot open a
// float was turned away early.
func TestAsNumberStrings(t *testing.T) {
	inputs := []string{
		"", " ", "0", "7", " 7 ", "\t-3.5\n", "+2", ".5", "-.5e3", "1e400", "-1e400", "1_000",
		"inf", "Inf", "-inf", "+Infinity", "infinit", "nan", "NaN", "-nan", "n", "i", "none", "item-3",
		"0x1p-2", "0X1.8p1", "0x", "0b101", "1abc", "--1", "-", "+", ".", "e5", "E5",
		"arm", "run-42", "/grid/pre/3.dat", "true", "é7", " 7 ", "７", "x",
	}
	for _, in := range inputs {
		want, err := strconv.ParseFloat(strings.TrimSpace(in), 64)
		got, ok := String(in).AsNumber()
		if ok != (err == nil) || (got != want && !(math.IsNaN(got) && math.IsNaN(want))) {
			t.Errorf("String(%q).AsNumber() = %v, %v; ParseFloat gives %v, %v", in, got, ok, want, err)
		}
	}
}

func TestAsNumberMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	env := MapEnv{"it": String("17")}
	arm, err := Parse(`"arm" + ($it % 2)`)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"AsNumber miss":    func() { _, _ = String("arm").AsNumber() },
		"padded path miss": func() { _, _ = String("  /grid/pre/3.dat ").AsNumber() },
		"numeric string":   func() { _, _ = String(" 17 ").AsNumber() },
	} {
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s: %.0f allocations, want 0", name, got)
		}
	}
	// "text" + number: the concatenation is the only allocation left.
	if got := testing.AllocsPerRun(100, func() { _, _ = arm.Eval(env) }); got > 1 {
		t.Errorf(`"arm" + ($it %% 2): %.0f allocations, want at most the result string`, got)
	}
}
