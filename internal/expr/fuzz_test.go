package expr

import (
	"strings"
	"testing"
)

// conditionSeeds are the while, switch, rule and trigger conditions the
// repository's tests use, and the malformed ones they refuse.
var conditionSeeds = []string{
	`"arm" + ($it % 2)`, "$i < 8", "$i < 20", "$n < 5", "$n < 3", "true", "$tier", "'x'",
	"$remaining > 0", "$$$bad((", "", "$x", "$size > 1000 && 'big' || 'small'",
	"coalesce($label, 'none')", "$size > 1000", "'zzz'", "$local == 42", "$sq == $it * $it",
	"endsWith($path, '.dat')", "num($size) >= 1048576", "startsWith($path, '/grid/in/archive')",
	"((", "$hour >= 20 || $hour < 6", "$attr == 'tag' && $value == 'rare'", "$x > 1", "1",
	"${size} > 1024", `$é == "accent"`, "$naïve + 1", "-'abc'", "1/0", "len(1,2)", "'bad\\q'",
}

// FuzzParse: no text makes Parse, Eval over a fixed env or Vars panic; a
// parsed expression keeps its source, and every name Vars reports is
// text of it.
func FuzzParse(f *testing.F) {
	for _, s := range conditionSeeds {
		f.Add(s)
	}
	env := MapEnv{
		"i": Number(3), "it": String("17"), "size": Number(2048), "path": String("/grid/in/a.dat"),
		"label": Null, "tier": String("hot"), "é": String("accent"), "x": Bool(true),
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		if e.Src() != src {
			t.Fatalf("Parse(%q).Src() = %q", src, e.Src())
		}
		_, _ = e.Eval(env)
		for _, name := range e.Vars() {
			if !strings.Contains(src, name) {
				t.Fatalf("Parse(%q).Vars() names %q, not in the source", src, name)
			}
		}
	})
}
