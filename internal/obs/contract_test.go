// Contract tests: docs/METRICS.md is the observability contract, and
// these tests keep it honest in both directions —
//
//   - every metric name and trace scope emitted anywhere in the source
//     must appear in the document (source scan);
//   - every metric a live engine + wire server actually registers must
//     appear in the document (runtime scan);
//   - a sequential two-step flow produces exactly the span sequence the
//     document promises.
package obs_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/matrix"
	"datagridflow/internal/namespace"
	"datagridflow/internal/obs"
	"datagridflow/internal/vfs"
	"datagridflow/internal/wire"
)

// docTokens returns every backtick-quoted token in docs/METRICS.md.
func docTokens(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "METRICS.md"))
	if err != nil {
		t.Fatalf("reading docs/METRICS.md: %v", err)
	}
	// Strip fenced code blocks first: their triple backticks would
	// otherwise flip the open/close parity of the inline-token scan.
	text := regexp.MustCompile("(?s)```.*?```").ReplaceAllString(string(data), "")
	tokens := make(map[string]bool)
	for _, m := range regexp.MustCompile("`([^`\n]+)`").FindAllStringSubmatch(text, -1) {
		tokens[m[1]] = true
	}
	return tokens
}

// sourceMetricNames scans every non-test .go file in the module for
// literal metric registrations: .Counter("..."), .Gauge("..."),
// .Histogram("...") and .HistogramBuckets("...").
func sourceMetricNames(t *testing.T) (metrics, scopes []string) {
	t.Helper()
	metricRe := regexp.MustCompile(`\.(Counter|Gauge|Histogram|HistogramBuckets)\(\s*"([a-z][a-z0-9_]*)"`)
	scopeRe := regexp.MustCompile(`\.(StartSpan|EndSpan)\(\s*[^,]+,\s*"([a-z]+)"`)
	mset, sset := make(map[string]bool), make(map[string]bool)
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range metricRe.FindAllStringSubmatch(string(data), -1) {
			mset[m[2]] = true
		}
		for _, m := range scopeRe.FindAllStringSubmatch(string(data), -1) {
			sset[m[2]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := range mset {
		metrics = append(metrics, n)
	}
	for s := range sset {
		scopes = append(scopes, s)
	}
	sort.Strings(metrics)
	sort.Strings(scopes)
	return metrics, scopes
}

func TestEveryEmittedMetricIsDocumented(t *testing.T) {
	doc := docTokens(t)
	metrics, scopes := sourceMetricNames(t)
	if len(metrics) < 20 {
		t.Fatalf("source scan found only %d metric names (%v) — scan is broken", len(metrics), metrics)
	}
	for _, name := range metrics {
		if !doc[name] {
			t.Errorf("metric %q is emitted in source but missing from docs/METRICS.md", name)
		}
	}
	if len(scopes) == 0 {
		t.Fatal("source scan found no trace scopes — scan is broken")
	}
	for _, s := range scopes {
		if !doc[s] {
			t.Errorf("trace scope %q is emitted in source but missing from docs/METRICS.md", s)
		}
	}
}

// newObservedEngine builds an engine over a grid with its own registry.
func newObservedEngine(t testing.TB) (*matrix.Engine, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	g := dgms.New(dgms.Options{Obs: reg})
	if err := g.RegisterResource(vfs.New("disk1", "sdsc", vfs.Disk, 0)); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateCollectionAll(g.Admin(), "/grid"); err != nil {
		t.Fatal(err)
	}
	if err := g.Namespace().SetPermission("/grid", "user", namespace.PermWrite); err != nil {
		t.Fatal(err)
	}
	return matrix.NewEngine(g), reg
}

func TestRuntimeRegistryMatchesDocs(t *testing.T) {
	e, reg := newObservedEngine(t)

	// Succeed, fail and restart flows through the engine...
	ok := dgl.NewFlow("ok").
		Step("mk", dgl.Op(dgl.OpMakeCollection, map[string]string{"path": "/grid/a"})).
		Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{"path": "/grid/a/f", "size": "10", "resource": "disk1"})).Flow()
	ex, err := e.Run("user", ok)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatalf("ok flow: %v", err)
	}
	bad := dgl.NewFlow("bad").
		Step("a", dgl.Op(dgl.OpNoop, nil)).
		Step("boom", dgl.Op(dgl.OpFail, nil)).Flow()
	bex, err := e.Run("user", bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := bex.Wait(); err == nil {
		t.Fatal("bad flow unexpectedly succeeded")
	}
	rex, err := e.Restart(bex.ID)
	if err != nil {
		t.Fatal(err)
	}
	rex.Wait() // fails again; we only care that restart metrics fire

	// ...and a wire round trip, including the metrics control op.
	s := wire.NewServer(e)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Status("user", ex.ID, false); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), " counter\n") {
		t.Fatal("wire metrics have no counters")
	}

	doc := docTokens(t)
	var names []string
	snapAll := reg.Snapshot()
	for _, c := range snapAll.Counters {
		names = append(names, c.Name)
	}
	for _, g := range snapAll.Gauges {
		names = append(names, g.Name)
	}
	for _, h := range snapAll.Histograms {
		names = append(names, h.Name)
	}
	slices.Sort(names)
	names = slices.Compact(names)
	if len(names) < 10 {
		t.Fatalf("scenario registered only %d metrics: %v", len(names), names)
	}
	for _, name := range names {
		if !doc[name] {
			t.Errorf("runtime metric %q missing from docs/METRICS.md", name)
		}
	}
	for _, ev := range reg.Trace().Events() {
		if !doc[ev.Scope] {
			t.Errorf("runtime trace scope %q missing from docs/METRICS.md", ev.Scope)
		}
	}
}

// TestFlowSpanSequence asserts the documented span sequence for a
// sequential two-step flow: start flow, start step a, end step a,
// start step b, end step b, end flow.
func TestFlowSpanSequence(t *testing.T) {
	e, reg := newObservedEngine(t)
	flow := dgl.NewFlow("pair").
		Step("a", dgl.Op(dgl.OpNoop, nil)).
		Step("b", dgl.Op(dgl.OpNoop, nil)).Flow()
	ex, err := e.Run("user", flow)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range reg.Trace().Events() {
		if ev.Scope != "flow" && ev.Scope != "step" {
			continue
		}
		got = append(got, ev.Type+" "+ev.Scope+" "+ev.Name)
	}
	want := []string{
		"start flow pair",
		"start step a",
		"end step a",
		"start step b",
		"end step b",
		"end flow pair",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("span sequence:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	// Span pairs correlate by (scope, id).
	byID := make(map[string]int)
	for _, ev := range reg.Trace().Events() {
		switch ev.Type {
		case obs.EventStart:
			byID[ev.Scope+"|"+ev.ID]++
		case obs.EventEnd:
			byID[ev.Scope+"|"+ev.ID]--
		}
	}
	for k, n := range byID {
		if n != 0 {
			t.Errorf("unbalanced span %s (%+d)", k, n)
		}
	}
}
