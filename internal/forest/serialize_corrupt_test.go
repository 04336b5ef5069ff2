package forest

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// The corrupt-model corpus: every way a model document can try to break
// Load, with the structural cases asserting the typed ErrCorruptModel.
// The cycle and unreachable-node documents are the regression corpus
// for the bug where Load accepted them and Tree.Predict looped forever.

// corruptCorpus maps a defect name to a document that must be rejected.
// Structural defects (wantCorrupt) must surface as ErrCorruptModel;
// the rest may fail at the JSON or version layer with any error.
var corruptCorpus = map[string]struct {
	doc         string
	wantCorrupt bool
}{
	"two-node cycle": {
		// The minimal A→B→A the old per-node checks accepted: nodes 1 and 2
		// parent each other, every index in range, nobody self-referential.
		doc: `{"version":1,"features":2,"trees":[{"nodes":[
			{"f":0,"t":1,"l":1,"r":3,"v":0,"n":4},
			{"f":1,"t":1,"l":2,"r":4,"v":0,"n":2},
			{"f":0,"t":2,"l":1,"r":5,"v":0,"n":2},
			{"f":-1,"v":1,"n":1},
			{"f":-1,"v":2,"n":1},
			{"f":-1,"v":3,"n":1}]}]}`,
		wantCorrupt: true,
	},
	"cycle through root": {
		doc: `{"version":1,"features":2,"trees":[{"nodes":[
			{"f":0,"t":1,"l":1,"r":2,"v":0,"n":2},
			{"f":1,"t":1,"l":0,"r":2,"v":0,"n":1},
			{"f":-1,"v":2,"n":1}]}]}`,
		wantCorrupt: true,
	},
	"unreachable node": {
		doc: `{"version":1,"features":2,"trees":[{"nodes":[
			{"f":0,"t":1,"l":1,"r":2,"v":0,"n":2},
			{"f":-1,"v":1,"n":1},
			{"f":-1,"v":2,"n":1},
			{"f":-1,"v":3,"n":1}]}]}`,
		wantCorrupt: true,
	},
	"unreachable cycle island": {
		// The reachable part is a perfect tree; nodes 3 and 4 form a
		// detached 2-cycle whose indegrees are each exactly 1, so only the
		// reachability pass can convict them.
		doc: `{"version":1,"features":2,"trees":[{"nodes":[
			{"f":0,"t":1,"l":1,"r":2,"v":0,"n":2},
			{"f":-1,"v":1,"n":1},
			{"f":-1,"v":2,"n":1},
			{"f":0,"t":1,"l":4,"r":5,"v":0,"n":1},
			{"f":1,"t":1,"l":3,"r":5,"v":0,"n":1},
			{"f":-1,"v":3,"n":1}]}]}`,
		wantCorrupt: true,
	},
	"shared subtree": {
		doc: `{"version":1,"features":2,"trees":[{"nodes":[
			{"f":0,"t":1,"l":1,"r":2,"v":0,"n":3},
			{"f":1,"t":1,"l":3,"r":4,"v":0,"n":2},
			{"f":0,"t":2,"l":3,"r":5,"v":0,"n":1},
			{"f":-1,"v":1,"n":1},
			{"f":-1,"v":2,"n":1},
			{"f":-1,"v":3,"n":1}]}]}`,
		wantCorrupt: true,
	},
	"self reference": {
		doc:         `{"version":1,"features":2,"trees":[{"nodes":[{"f":0,"t":1,"l":1,"r":1,"v":1,"n":1},{"f":-1,"v":1,"n":1}]}]}`,
		wantCorrupt: true,
	},
	"children collide": {
		doc: `{"version":1,"features":2,"trees":[{"nodes":[
			{"f":0,"t":1,"l":1,"r":1,"v":0,"n":2},
			{"f":-1,"v":1,"n":1}]}]}`,
		wantCorrupt: true,
	},
	"dangling child": {
		doc:         `{"version":1,"features":2,"trees":[{"nodes":[{"f":0,"t":1,"l":9,"r":1,"v":0,"n":1},{"f":-1,"v":1,"n":1}]}]}`,
		wantCorrupt: true,
	},
	"negative count": {
		doc:         `{"version":1,"features":1,"trees":[{"nodes":[{"f":-1,"v":1,"n":-3}]}]}`,
		wantCorrupt: true,
	},
	"infinite leaf value": {
		doc:         `{"version":1,"features":1,"trees":[{"nodes":[{"f":-1,"v":1e999,"n":1}]}]}`,
		wantCorrupt: false, // the JSON layer rejects the out-of-range number
	},
	"empty tree": {
		doc:         `{"version":1,"features":1,"trees":[{"nodes":[]}]}`,
		wantCorrupt: true,
	},
	"truncated document": {
		doc: `{"version":1,"features":2,"trees":[{"nodes":[{"f":0,"t":1`,
	},
	"NaN threshold": {
		// JSON has no NaN literal, so the decode layer rejects it; the
		// math.IsNaN guard in Load stays as defense in depth for any
		// future non-JSON ingestion path.
		doc: `{"version":1,"features":2,"trees":[{"nodes":[{"f":0,"t":NaN,"l":1,"r":2,"v":0,"n":1}]}]}`,
	},
	"wrong version": {
		doc: `{"version":7,"features":1,"trees":[{"nodes":[{"f":-1,"v":1,"n":1}]}]}`,
	},
	"no trees": {
		doc: `{"version":1,"features":1,"trees":[]}`,
	},
}

// TestLoadRejectsCorruptModels pins the fix for the Predict-loops-
// forever bug: every document in the corpus is refused, and the
// structural ones carry the typed corrupt-model error.
func TestLoadRejectsCorruptModels(t *testing.T) {
	for name, tc := range corruptCorpus {
		f, err := Load(strings.NewReader(tc.doc))
		if err == nil {
			t.Errorf("%s: Load accepted the document", name)
			// Prove the stakes: predicting on the accepted forest must not
			// hang the test suite, so don't actually call Predict here.
			_ = f
			continue
		}
		if tc.wantCorrupt {
			if !errors.Is(err, ErrCorruptModel) {
				t.Errorf("%s: error %v is not ErrCorruptModel", name, err)
			}
			var ce *CorruptModelError
			if !errors.As(err, &ce) {
				t.Errorf("%s: error %v carries no *CorruptModelError", name, err)
			}
		}
	}
}

// TestLoadAcceptsHealthyDocuments guards against over-rejection: a
// round-tripped fitted forest and a minimal hand-written document both
// load.
func TestLoadAcceptsHealthyDocuments(t *testing.T) {
	docs := map[string]string{
		"single leaf": `{"version":1,"features":1,"trees":[{"nodes":[{"f":-1,"v":2.5,"n":4}]}]}`,
		"full tree": `{"version":1,"features":2,"trees":[{"nodes":[
			{"f":0,"t":1,"l":1,"r":2,"v":0,"n":3},
			{"f":-1,"v":1,"n":2},
			{"f":1,"t":2,"l":3,"r":4,"v":0,"n":1},
			{"f":-1,"v":2,"n":1},
			{"f":-1,"v":3,"n":1}]}]}`,
	}
	for name, doc := range docs {
		f, err := Load(strings.NewReader(doc))
		if err != nil {
			t.Errorf("%s: Load rejected a healthy document: %v", name, err)
			continue
		}
		// The structural guarantee in action: Predict terminates.
		_ = f.Predict(make([]float64, f.nf))
	}
}

// FuzzLoad drives Load with adversarial documents: it must never panic,
// and anything it accepts must predict without hanging and survive a
// Save→Load round trip.
func FuzzLoad(fz *testing.F) {
	fz.Add(`{"version":1,"features":1,"trees":[{"nodes":[{"f":-1,"v":2.5,"n":4}]}]}`)
	fz.Add(rightFirstModel)
	for _, tc := range corruptCorpus {
		fz.Add(tc.doc)
	}
	fz.Fuzz(func(t *testing.T, doc string) {
		f, err := Load(strings.NewReader(doc))
		if err != nil {
			return
		}
		// Accepted ⇒ structurally sound: prediction terminates...
		_ = f.Predict(make([]float64, f.nf))
		// ...and the document round-trips through Save.
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatalf("Save failed on an accepted model: %v", err)
		}
		if _, err := Load(&buf); err != nil {
			t.Fatalf("round trip rejected what Load accepted: %v", err)
		}
	})
}
