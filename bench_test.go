package datagridflow

// bench_test.go holds the public facade's one benchmark. Experiments
// (E1–E18) are run by `go run ./cmd/dgfbench` and by
// TestAllExperimentsSmall in internal/experiments; per-package
// micro-benchmarks live next to the code they measure.

import (
	"fmt"
	"testing"
)

// BenchmarkFacadeFlow measures the canonical public-API round trip: a
// three-step flow built, validated and executed per iteration.
func BenchmarkFacadeFlow(b *testing.B) {
	grid := NewGrid(GridOptions{})
	if err := grid.RegisterResource(NewResource("disk", "sdsc", Disk, 0)); err != nil {
		b.Fatal(err)
	}
	if err := grid.CreateCollectionAll(grid.Admin(), "/grid"); err != nil {
		b.Fatal(err)
	}
	engine := NewEngine(grid)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		flow := NewFlow("bench").
			Step("ingest", Op(OpIngest, map[string]string{
				"path": fmt.Sprintf("/grid/f%d", i), "size": "1024", "resource": "disk",
			})).
			Step("tag", Op(OpSetMeta, map[string]string{
				"path": fmt.Sprintf("/grid/f%d", i), "attr": "k", "value": "v",
			})).Flow()
		exec, err := engine.Run(grid.Admin(), flow)
		if err != nil {
			b.Fatal(err)
		}
		if err := exec.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}
