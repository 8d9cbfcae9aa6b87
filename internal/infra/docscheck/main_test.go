package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestRepoIsConsistent runs the real checker against the real tree:
// the repository must pass its own docs gate.
func TestRepoIsConsistent(t *testing.T) {
	problems, err := check("../../..")
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	for _, p := range problems {
		t.Errorf("%s", p)
	}
}

// TestCatchesUndocumentedFlag builds a minimal fake repo with one flag
// that no document mentions and one that README covers.
func TestCatchesUndocumentedFlag(t *testing.T) {
	root := fakeRepo(t, map[string]string{
		"cmd/srv/main.go": `package main
import "flag"
func main() {
	flag.String("addr", "", "listen address")
	flag.Bool("turbo-mode", false, "undocumented")
}`,
		"README.md":       "Run srv with `-addr` set.\n",
		"docs/METRICS.md": "",
	})
	problems, err := check(root)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "-turbo-mode") {
		t.Fatalf("want exactly the -turbo-mode problem, got %q", problems)
	}
}

// TestCatchesStaleFlag: a command line shown in code may use only flags
// the binary registers. A flag that outlived its deletion fails, in a
// span, in a fenced block and inside a slash list; registered flags, a
// verb's own flags after a dgfctl verb, another program's flags and
// flags named in plain prose do not.
func TestCatchesStaleFlag(t *testing.T) {
	root := fakeRepo(t, map[string]string{
		"cmd/dgfbench/main.go": `package main
import "flag"
func main() {
	flag.String("exp", "all", "ids")
	flag.Bool("small", false, "small")
	flag.Bool("metrics", true, "snapshot")
}`,
		"cmd/dgfctl/main.go": `package main
import "flag"
func main() { flag.String("addr", "", "server") }
var verbs = []verb{
	{
		name: "submit",
	},
}`,
		"README.md": "| `submit [-async] file.xml` | submit |\n" +
			"Run `dgfbench -small -exp E5 -metrics=false`, or `dgfbench -load -small`.\n" +
			"The old dgfbench -o flag is gone (prose, not code).\n" +
			"`dgfctl -addr :7401 submit -async flow.xml` and `dgfctl -token $TOK tenants`.\n" +
			"`bash bench/run.sh --workload fleet_submit` is not ours to check.\n",
		"docs/BENCH.md": "```sh\ngo run ./cmd/dgfbench -exp E14 | tee -a out.txt\n" +
			"/tmp/bin/dgfbench -store/-repl -small   # stale pair\n```\n",
		"docs/METRICS.md": "",
	})
	problems, err := check(root)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	want := []string{"`dgfbench -load`", "`dgfbench -repl`", "`dgfbench -store`", "`dgfctl -token`"}
	if len(problems) != len(want) {
		t.Fatalf("want %d problems %q, got %q", len(want), want, problems)
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) {
			t.Errorf("problem %d = %q, want it to show %s", i, problems[i], w)
		}
	}
}

// TestCatchesUndocumentedMetric registers a metric the docs lack.
func TestCatchesUndocumentedMetric(t *testing.T) {
	root := fakeRepo(t, map[string]string{
		"cmd/srv/main.go": "package main\nfunc main() {}",
		"internal/x/x.go": `package x
type reg struct{}
func (reg) Counter(name string) {}
func emit(r reg) {
	r.Counter("frames_total")
	r.Counter("drops_total")
}`,
		"README.md":       "",
		"docs/METRICS.md": "| `frames_total` | counter |\n",
	})
	problems, err := check(root)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "drops_total") {
		t.Fatalf("want exactly the drops_total problem, got %q", problems)
	}
}

// TestCatchesStaleWireIdentifier: a method, field or package-level name
// of internal/wire shown in code must exist there. Exported methods,
// fields, types and functions pass; a deleted or test-only method and a
// deleted function fail; other packages' types and lowercase names
// (unexported ones, metric rows) are not checked.
func TestCatchesStaleWireIdentifier(t *testing.T) {
	root := fakeRepo(t, map[string]string{
		"cmd/srv/main.go": "package main\nfunc main() {}",
		"internal/wire/client.go": `package wire
type Client struct{ addr string }
type ServerConfig struct{ MaxInflight int }
func Dial(addr string) (*Client, error) { return nil, nil }
func (c *Client) Hello() (string, error) { return "", nil }
func (c *Client) roundTrip() {}
const ProtoVersion = "2.0"`,
		"internal/wire/client_test.go": "package wire\nfunc (c *Client) CanRoute() bool { return true }",
		"README.md": "`wire.Dial`, `Client.Hello`, `ServerConfig.MaxInflight` and `wire.ProtoVersion` exist.\n" +
			"`Client.CanRoute()`, `wire.RouteSupported` and `Client.Redial` do not.\n" +
			"`LookupServer.SetAuth`, `matrix.Server.Run`, `Client.roundTrip` and `wire.rtt_us` are not checked; neither is Client.Gone in prose.\n",
		"docs/METRICS.md": "",
	})
	problems, err := check(root)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	want := []string{"`Client.CanRoute`", "`Client.Redial`", "`wire.RouteSupported`"}
	if len(problems) != len(want) {
		t.Fatalf("want %d problems %q, got %q", len(want), want, problems)
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) {
			t.Errorf("problem %d = %q, want it to show %s", i, problems[i], w)
		}
	}
}

// TestCatchesStaleAPIIdentifier: the same rule over every package
// under internal/, and for bare names. A deleted method, function or
// type fails qualified (`Engine.SetJournal`, `codec.UpgradeRequestDoc`,
// `namespace.List`) and bare (`RecoverFromJournal`); what the code
// declares passes, a test function included; a type name two packages
// declare (`Config`) passes if either has the name, while a facade
// alias of a checked type does not make it ambiguous.
func TestCatchesStaleAPIIdentifier(t *testing.T) {
	root := fakeRepo(t, map[string]string{
		"cmd/srv/main.go": "package main\nfunc main() {}",
		"internal/matrix/engine.go": `package matrix
type Engine struct{}
type Config struct{ IDPrefix string }
func (e *Engine) RecoverFromStore() error { return nil }
func (e *Engine) SetStore(st any) {}`,
		"internal/matrix/persist_test.go": "package matrix\nfunc TestJournalCrashRecovery() {}",
		"internal/store/store.go":         "package store\ntype Store struct{}\nfunc Open(dir string) (*Store, error) { return nil, nil }\nfunc (s *Store) Has(id string) bool { return false }",
		"internal/codec/dgl.go":           "package codec\nfunc DecodeRequestDoc(doc string) {}",
		"internal/federation/fed.go":      "package federation\ntype Config struct{ Backoff int }",
		"internal/namespace/ns.go":        "package namespace\nfunc Parent(p string) string { return p }",
		"dgf.go":                          "package datagridflow\nimport \"x/internal/matrix\"\ntype Engine = matrix.Engine",
		"README.md": "`Engine.RecoverFromStore`, `RecoverFromStore`, `SetStore(st)`, `store.Open`, `Store.Has`, " +
			"`codec.DecodeRequestDoc`, `TestJournalCrashRecovery`, `Config.Backoff` and `namespace.Parent` exist.\n" +
			"`Engine.SetJournal`, `RecoverFromJournal`, `Store.AppendJSON`, `codec.UpgradeRequestDoc` and `namespace.List` do not.\n" +
			"`XML`, `JSONL` and `Open` are not names of two words, and RecoverFromJournal in prose is not code.\n",
		"docs/METRICS.md": "",
	})
	problems, err := check(root)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	want := []string{"`Engine.SetJournal`", "`RecoverFromJournal`", "`Store.AppendJSON`", "`codec.UpgradeRequestDoc`", "`namespace.List`"}
	if len(problems) != len(want) {
		t.Fatalf("want %d problems %q, got %q", len(want), want, problems)
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) {
			t.Errorf("problem %d = %q, want it to show %s", i, problems[i], w)
		}
	}
}

// moduleRepo is fakeRepo for the reachability rule: a module named x,
// with the documents the other rules read left empty.
func moduleRepo(t *testing.T, files map[string]string) string {
	t.Helper()
	files["go.mod"] = "module x\n\ngo 1.22\n"
	files["README.md"] = ""
	files["docs/METRICS.md"] = ""
	return fakeRepo(t, files)
}

// wantProblems runs the checker over root and fails t unless its
// problems are exactly want, each matched as a substring, in order.
func wantProblems(t *testing.T, root string, want ...string) {
	t.Helper()
	problems, err := check(root)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(problems) != len(want) {
		t.Fatalf("want %d problems %q, got %q", len(want), want, problems)
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) {
			t.Errorf("problem %d = %q, want it to show %s", i, problems[i], w)
		}
	}
}

// TestCatchesDeadExport: an exported function nothing calls is a
// finding, named with its file and line; one a command calls is not. A
// type named only as its own methods' receiver has no user either.
func TestCatchesDeadExport(t *testing.T) {
	root := moduleRepo(t, map[string]string{
		"internal/a/a.go": "package a\n\nfunc Used() {}\n\nfunc Dead() {}\n\ntype Lone struct{}\n\nfunc (Lone) M() {}\n",
		"cmd/srv/main.go": "package main\n\nimport \"x/internal/a\"\n\nfunc main() { a.Used() }\n",
	})
	wantProblems(t, root,
		"internal/a/a.go:5: a.Dead has no user in non-test Go",
		"internal/a/a.go:7: a.Lone has no user in non-test Go",
		"internal/a/a.go:9: a.Lone.M has no user in non-test Go")
}

// TestCatchesTestOnlyExport: a caller in a _test.go file does not count.
func TestCatchesTestOnlyExport(t *testing.T) {
	root := moduleRepo(t, map[string]string{
		"internal/a/a.go":      "package a\n\nfunc Tested() int { return 1 }\n",
		"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestTested(t *testing.T) { Tested() }\n",
	})
	wantProblems(t, root, "a.Tested has no user in non-test Go")
}

// TestNestedModuleCounts: a nested module that replaces the root one
// with ../, as bench/ does, is a caller like any command.
func TestNestedModuleCounts(t *testing.T) {
	root := moduleRepo(t, map[string]string{
		"internal/a/a.go": "package a\n\nfunc BenchOnly() {}\n",
		"bench/go.mod":    "module x/bench\n\ngo 1.22\n\nrequire x v0.0.0\n\nreplace x => ../\n",
		"bench/main.go":   "package main\n\nimport \"x/internal/a\"\n\nfunc main() { a.BenchOnly() }\n",
	})
	wantProblems(t, root)
}

// TestBuildConstraintsHonoured: files a build of this platform leaves
// out, by a //go:build line or a GOOS suffix, are not type-checked, so
// a declaration repeated per platform is no duplicate.
func TestBuildConstraintsHonoured(t *testing.T) {
	other := "plan9"
	if runtime.GOOS == other {
		other = "windows"
	}
	root := moduleRepo(t, map[string]string{
		"internal/a/a.go":                         "package a\n\nfunc Used() int { return page }\n",
		"internal/a/page_" + runtime.GOOS + ".go": "package a\n\nconst page = 1\n",
		"internal/a/page_" + other + ".go":        "package a\n\nconst page = 2\n",
		"internal/a/page_other.go":                "//go:build ignore\n\npackage a\n\nconst page = 3\n",
		"internal/gen/gen.go":                     "//go:build ignore\n\npackage main\n\nfunc main() {}\n",
		"cmd/srv/main.go":                         "package main\n\nimport \"x/internal/a\"\n\nfunc main() { a.Used() }\n",
	})
	wantProblems(t, root)
}

// TestInterfaceMethodsAreUsed: a method that implements an interface
// some package declares, String and MarshalJSON here, is called through
// it and is not a finding.
func TestInterfaceMethodsAreUsed(t *testing.T) {
	root := moduleRepo(t, map[string]string{
		"internal/a/a.go": `package a

import (
	"encoding/json"
	"fmt"
)

type T struct{}

func (T) String() string { return "t" }

func (T) MarshalJSON() ([]byte, error) { return []byte("1"), nil }

func Show(t T) string {
	b, _ := json.Marshal(t)
	return fmt.Sprint(t) + string(b)
}
`,
		"cmd/srv/main.go": "package main\n\nimport \"x/internal/a\"\n\nfunc main() { println(a.Show(a.T{})) }\n",
	})
	wantProblems(t, root)
}

// TestTaggedFieldsAreUsed: a struct field with a tag is read by
// reflection and is not a finding; an untagged one nothing reads is.
func TestTaggedFieldsAreUsed(t *testing.T) {
	root := moduleRepo(t, map[string]string{
		"internal/a/a.go": "package a\n\ntype Doc struct {\n\tName string `xml:\"name\"`\n\tSpare string\n}\n\nfunc New() Doc { return Doc{} }\n",
		"cmd/srv/main.go": "package main\n\nimport \"x/internal/a\"\n\nfunc main() { _ = a.New() }\n",
	})
	wantProblems(t, root, "a.Doc.Spare has no user in non-test Go")
}

// TestAllowListOnlyShrinks: an allow-listed name that gained a caller,
// one that no longer exists and one kept for a reason that is neither a
// seam nor a capability are each a problem; a listed dead name is not.
func TestAllowListOnlyShrinks(t *testing.T) {
	root := moduleRepo(t, map[string]string{
		"internal/a/a.go": "package a\n\nfunc NowUsed() {}\n\nfunc Seam() {}\n\nfunc Later() {}\n",
		"cmd/srv/main.go": "package main\n\nimport \"x/internal/a\"\n\nfunc main() { a.NowUsed() }\n",
		"internal/infra/docscheck/unused.txt": "# comment\n" +
			"a.NowUsed seam: sets a clock; TestClock (internal/b)\n" +
			"a.Seam seam: sets a clock; TestClock (internal/b)\n" +
			"a.Gone S4 namespace listing; ROADMAP item 9\n" +
			"a.Later might be useful later\n",
	})
	wantProblems(t, root,
		"unused.txt lists a.Gone, which names no exported identifier",
		"unused.txt lists a.Later for \"might be useful later\", which is neither",
		"unused.txt lists a.NowUsed, which has a non-test caller now")
}

// TestCatchesWriteOnlyState: a field or package-level var that non-test
// Go writes and never reads is a finding, whatever the write's form: =,
// op=, ++, x.f = append(x.f, …), x.f[k] = v, delete(x.f, k), a struct
// literal's key, or a sync/atomic Store, Add or Swap whose result is
// unused. A field read only through a method value or &x.f is read; so
// is an atomic Add whose result is used; a tagged field is read by
// reflection. A listed finding passes, and a listed field that is read
// now fails as stale.
func TestCatchesWriteOnlyState(t *testing.T) {
	root := moduleRepo(t, map[string]string{
		"internal/a/a.go": `package a

import (
	"strings"
	"sync/atomic"
)

// T holds one field per write form, and the reads that are none.
type T struct {
	assigned  int
	opAssign  int
	incd      int
	appended  []int
	indexed   map[string]int
	deleted   map[string]int
	keyed     int
	stored    atomic.Int64
	added     atomic.Int64
	swapped   int64
	listed    int
	methodVal strings.Builder
	addressed int
	lenRead   []int
	addUsed   atomic.Int64
	tagged    int ` + "`json:\"tagged\"`" + `
}

var hits int

// Run writes every field and reads some.
func Run() int {
	x := &T{keyed: 1, tagged: 2}
	x.assigned = 1
	x.opAssign += 2
	x.incd++
	x.appended = append(x.appended, 3)
	x.indexed["k"] = 4
	delete(x.deleted, "k")
	x.stored.Store(5)
	x.added.Add(1)
	atomic.SwapInt64(&x.swapped, 6)
	x.listed = 7
	hits++
	x.methodVal = strings.Builder{}
	s := x.methodVal.String
	x.addressed = 8
	p := &x.addressed
	x.lenRead = append(x.lenRead, 9)
	return len(s()) + *p + len(x.lenRead) + int(x.addUsed.Add(1))
}
`,
		"cmd/srv/main.go": "package main\n\nimport \"x/internal/a\"\n\nfunc main() { a.Run() }\n",
		"internal/infra/docscheck/unused.txt": "a.T.listed bench: set only by the benchmark; ROADMAP item 16\n" +
			"a.T.lenRead seam: kept for a test; TestLen (internal/b)\n",
	})
	var want []string
	for _, f := range []string{"assigned", "opAssign", "incd", "appended", "indexed", "deleted", "keyed", "stored", "added", "swapped"} {
		want = append(want, "a.T."+f+" is written but never read in non-test Go")
	}
	want = append(want, "a.hits is written but never read in non-test Go",
		"unused.txt lists a.T.lenRead, which has a non-test reader now")
	wantProblems(t, root, want...)
}

// TestFlagTokenBoundaries: -o must not be satisfied by -open.
func TestFlagTokenBoundaries(t *testing.T) {
	if mentionsFlag("use -open for demo mode", "o") {
		t.Fatal("-open must not satisfy -o")
	}
	if !mentionsFlag("write the report with -o out.json", "o") {
		t.Fatal("-o should be found as a standalone token")
	}
	if !mentionsFlag("`-o` writes the report", "o") {
		t.Fatal("backticked -o should be found")
	}
}

// fakeRepo materializes files under a temp root. A cmd/dgfctl/main.go
// with no verbs is added if absent so the verb check has its input.
func fakeRepo(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	if _, ok := files["cmd/dgfctl/main.go"]; !ok {
		files["cmd/dgfctl/main.go"] = "package main\nfunc main() {}"
	}
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}
