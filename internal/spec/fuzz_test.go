package spec

import (
	"os"
	"testing"
)

// FuzzSpecLoad feeds arbitrary text to the .dcs loader, seeded from the
// paper's spec: Load either builds a system or reports an error, and
// never panics.
func FuzzSpecLoad(f *testing.F) {
	paper, err := os.ReadFile("../../testdata/paper.dcs")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(paper))
	f.Add("relation R(a int*, b float)\ntuple R(1, 2)\nview V(a, b) :- R(a, b)\ncite V fields _,database CV(D) :- D = 'x'\nstatic V database 'it''s'")
	f.Add("tuple R(1)")
	f.Add("cite V fields a Q(x) :- R(x)")
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Load(src)
	})
}
