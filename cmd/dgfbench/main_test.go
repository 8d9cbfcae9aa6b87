package main

import (
	"strings"
	"testing"

	"datagridflow/internal/experiments"
)

func TestSelectExperiments(t *testing.T) {
	ids := func(exps []experiments.Experiment) string {
		var s []string
		for _, e := range exps {
			s = append(s, e.ID)
		}
		return strings.Join(s, ",")
	}
	for _, c := range []struct {
		list, want, wantErr string
	}{
		{list: "all", want: ids(experiments.All())},
		{list: "E5", want: "E5"},
		{list: "e5", want: "E5"},
		{list: " e16 ,E2", want: "E2,E16"}, // harness order, not flag order
		{list: "E99", wantErr: `unknown experiment "E99"`},
		{list: "E5,E99", wantErr: `unknown experiment "E99"`},
		{list: "ALL", want: ids(experiments.All())},
		{list: "", wantErr: `unknown experiment ""`},
	} {
		got, err := selectExperiments(c.list)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("-exp %q: err = %v, want %s", c.list, err, c.wantErr)
			} else if !strings.Contains(err.Error(), "E1 E2") || !strings.Contains(err.Error(), "E18") {
				t.Errorf("-exp %q: error does not list the valid ids: %v", c.list, err)
			}
			continue
		}
		if err != nil || ids(got) != c.want {
			t.Errorf("-exp %q: got %s, %v; want %s", c.list, ids(got), err, c.want)
		}
	}
}
