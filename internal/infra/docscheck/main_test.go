package main

import (
	"os"
	"path/filepath"
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
