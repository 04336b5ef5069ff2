package forest

import (
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestSaveLoadRoundtrip(t *testing.T) {
	r := rng.New(3)
	X, y := synth(150, r)
	f, err := Fit(X, y, Params{Trees: 25}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTrees() != f.NumTrees() {
		t.Fatalf("tree count changed: %d vs %d", g.NumTrees(), f.NumTrees())
	}
	for i := 0; i < 50; i++ {
		probe := []float64{r.Float64() * 10, r.Float64() * 10, r.Float64()}
		if f.Predict(probe) != g.Predict(probe) {
			t.Fatal("loaded forest predicts differently")
		}
	}
	oobA, okA := f.OOBError()
	oobB, okB := g.OOBError()
	if okA != okB || oobA != oobB {
		t.Fatal("OOB error not preserved")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":        "hello",
		"wrong version":   `{"version":99,"features":2,"trees":[{"nodes":[{"f":-1,"v":1,"n":1}]}]}`,
		"no trees":        `{"version":1,"features":2,"trees":[]}`,
		"zero features":   `{"version":1,"features":0,"trees":[{"nodes":[{"f":-1,"v":1,"n":1}]}]}`,
		"dangling child":  `{"version":1,"features":2,"trees":[{"nodes":[{"f":0,"t":1,"l":5,"r":0,"v":1,"n":1}]}]}`,
		"self reference":  `{"version":1,"features":2,"trees":[{"nodes":[{"f":0,"t":1,"l":0,"r":0,"v":1,"n":1}]}]}`,
		"feature too big": `{"version":1,"features":1,"trees":[{"nodes":[{"f":3,"t":1,"l":0,"r":0,"v":1,"n":1}]}]}`,
		"empty tree":      `{"version":1,"features":1,"trees":[{"nodes":[]}]}`,
		// A feature index must fit the packed node's int32.
		"features past int32": `{"version":1,"features":4294967296,"trees":[{"nodes":[{"f":-1,"v":1,"n":1}]}]}`,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
