package matrix

import (
	"os"
	"path/filepath"
	"testing"

	"datagridflow/internal/dgl"
)

// FuzzLoweringMatchesValidate: lowering a flow refuses it if and only if
// dgl.ValidateFlow does, with the same error text — the two walks run
// the same node checks in the same order — and a flow it accepts lowers
// without panicking. Seeded with the DGL corpus (valid and invalid
// documents) and a few documents each breaking one rule.
func FuzzLoweringMatchesValidate(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "dgl", "testdata", "*.xml"))
	if err != nil || len(files) == 0 {
		f.Fatalf("DGL corpus missing: %v, %v", files, err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, flow := range []dgl.Flow{
		dgl.NewFlow("dup").Step("a", dgl.Op(dgl.OpNoop, nil)).Step("a", dgl.Op(dgl.OpNoop, nil)).Flow(),
		dgl.NewFlow("op").Step("a", dgl.Op("probe", nil)).Step("b", dgl.Op("unknown", nil)).Flow(),
		dgl.NewFlow("loop").WhileLoop("$i <").Step("a", dgl.Op(dgl.OpNoop, nil)).Flow(),
		dgl.NewFlow("outer").SubFlow(dgl.NewFlow("inner").StepWith(dgl.Step{Name: "s", Pure: true, Outputs: "/a,,/b",
			Operation: dgl.Op(dgl.OpNoop, nil)})).Flow(),
		dgl.NewFlow("rules").OnEntry(dgl.Op(dgl.OpNoop, nil)).Repeat("i", 2).
			Step("a", dgl.Op(dgl.OpNoop, map[string]string{"x": "${i}"})).Flow(),
	} {
		data, err := dgl.Marshal(dgl.NewRequest("user", "", flow))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	known := map[string]bool{"probe": true}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := dgl.DecodeRequest(data)
		if err != nil || req.Flow == nil {
			return
		}
		want := dgl.ValidateFlow(req.Flow, known)
		p, err := buildPlan(req.Flow, known)
		switch {
		case (err == nil) != (want == nil):
			t.Fatalf("lowering: %v; ValidateFlow: %v", err, want)
		case err != nil && err.Error() != want.Error():
			t.Fatalf("lowering refuses with %q, ValidateFlow with %q", err, want)
		case err == nil && (p == nil || p.root.src != req.Flow):
			t.Fatalf("lowering accepted the flow without a plan of it")
		}
	})
}
