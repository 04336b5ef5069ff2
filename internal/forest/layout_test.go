package forest

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

// referencePredict walks a saved model document node by node, following
// its explicit left/right indices: a forest walk that shares nothing
// with the packed preorder layout.
func referencePredict(doc jsonForest, x []float64) float64 {
	sum := 0.0
	for _, jt := range doc.Trees {
		i := 0
		for jt.Nodes[i].Feature >= 0 {
			n := jt.Nodes[i]
			if x[n.Feature] <= n.Threshold {
				i = n.Left
			} else {
				i = n.Right
			}
		}
		sum += jt.Nodes[i].Value
	}
	return sum / float64(len(doc.Trees))
}

func TestPredictAllMatchesSavedDocument(t *testing.T) {
	X, y := synth(120, rng.New(61))
	probes, _ := synth(700, rng.New(62))
	for _, workers := range []int{1, 3, 8} {
		f, err := Fit(X, y, Params{Trees: 30, Workers: workers}, rng.New(63))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var doc jsonForest
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		got := f.PredictAll(probes)
		for i, x := range probes {
			want := referencePredict(doc, x)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("workers=%d row %d: PredictAll %v, reference walk %v", workers, i, got[i], want)
			}
			if p := f.Predict(x); math.Float64bits(p) != math.Float64bits(want) {
				t.Fatalf("workers=%d row %d: Predict %v, reference walk %v", workers, i, p, want)
			}
		}
	}
}

// goldenModel is what Save wrote for goldenForest before trees were
// packed into the preorder layout; the document format must not move.
const goldenModel = `{"version":1,"features":3,"trees":[{"nodes":[{"f":2,"t":0.8234209438442244,"l":1,"r":6,"v":43.06013666049594,"n":12,"g":3615.9473264902526},{"f":0,"t":5.519581546279725,"l":2,"r":3,"v":35.29703233459401,"n":10,"g":1290.9030985435643},{"f":-1,"v":17.941608888492283,"n":3},{"f":1,"t":2.135333979439662,"l":4,"r":5,"v":42.73507095435189,"n":7,"g":331.70645431573587},{"f":-1,"v":34.786348932893,"n":3},{"f":-1,"v":48.69661247044607,"n":4},{"f":-1,"v":81.87565829000562,"n":2}]},{"nodes":[{"f":0,"t":6.042692043028757,"l":1,"r":6,"v":27.442030721451726,"n":12,"g":3885.4048413725377},{"f":0,"t":2.2839013817280356,"l":2,"r":3,"v":17.053194777981055,"n":9,"g":474.28953190043217},{"f":-1,"v":8.93694280448478,"n":4},{"f":1,"t":5.193505857923222,"l":4,"r":5,"v":23.546196356778072,"n":5,"g":39.499043190919835},{"f":-1,"v":20.103855153864608,"n":2},{"f":-1,"v":25.841090492053713,"n":3},{"f":-1,"v":58.60853855186375,"n":3}]}],"oob_error":17.092722435176043,"oob_valid":true}
`

func goldenForest(t *testing.T) *Forest {
	t.Helper()
	X, y := synth(12, rng.New(5))
	f, err := Fit(X, y, Params{Trees: 2, MaxDepth: 3}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSaveMatchesGoldenDocument(t *testing.T) {
	f := goldenForest(t)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != goldenModel {
		t.Fatalf("Save output moved:\n got %s\nwant %s", buf.String(), goldenModel)
	}
	if got, want := f.Predict([]float64{4, 6, 0.5}), 0x1.5e42f7e4905b2p+04; got != want {
		t.Fatalf("golden forest predicts %x, want %x", got, want)
	}
}

func TestSaveLoadSaveIsByteIdentical(t *testing.T) {
	X, y := synth(150, rng.New(3))
	f, err := Fit(X, y, Params{Trees: 25}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if err := f.Save(&first); err != nil {
		t.Fatal(err)
	}
	g, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Save→Load→Save changed the document")
	}
}

// rightFirstModel is a valid hand-written document that lists a right
// subtree before the left one: the root's right child is node 1 and
// its left child (an inner node) is node 2, whose own children are
// listed right (3) before left (4).
const rightFirstModel = `{"version":1,"features":2,"trees":[{"nodes":[` +
	`{"f":0,"t":5,"l":2,"r":1,"v":9,"n":6,"g":4},` +
	`{"f":-1,"v":20,"n":2},` +
	`{"f":1,"t":3,"l":4,"r":3,"v":4,"n":4,"g":2},` +
	`{"f":-1,"v":7,"n":2},` +
	`{"f":-1,"v":1,"n":2}]}]}`

// rightFirstPreorder is rightFirstModel renumbered into preorder.
const rightFirstPreorder = `{"version":1,"features":2,"trees":[{"nodes":[` +
	`{"f":0,"t":5,"l":1,"r":4,"v":9,"n":6,"g":4},` +
	`{"f":1,"t":3,"l":2,"r":3,"v":4,"n":4,"g":2},` +
	`{"f":-1,"v":1,"n":2},` +
	`{"f":-1,"v":7,"n":2},` +
	`{"f":-1,"v":20,"n":2}]}]}` + "\n"

func TestLoadRenumbersIntoPreorder(t *testing.T) {
	f, err := Load(strings.NewReader(rightFirstModel))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		x    []float64
		want float64
	}{{[]float64{1, 1}, 1}, {[]float64{1, 9}, 7}, {[]float64{9, 0}, 20}, {[]float64{5, 3}, 1}} {
		if got := f.Predict(c.x); got != c.want {
			t.Errorf("Predict(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != rightFirstPreorder {
		t.Fatalf("Save after Load:\n got %s\nwant %s", buf.String(), rightFirstPreorder)
	}
}

// BenchmarkForestPredictAll scores a pool at the paper's shape: 100
// trees fit on about 100 rows (one source search), 10 000 rows scored
// (N), one worker.
func BenchmarkForestPredictAll(b *testing.B) {
	X, y := synth(100, rng.New(1))
	f, err := Fit(X, y, Params{Trees: 100, Workers: 1}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	pool, _ := synth(10000, rng.New(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = f.PredictAll(pool)
	}
}

var benchSink []float64
