package gen

import (
	"testing"

	"dynamicrumor/internal/xrand"
)

func TestRegistryBuildMatchesDirectConstructors(t *testing.T) {
	cases := []struct {
		family string
		params Params
		wantN  int
		wantM  int
	}{
		{"clique", Params{"n": 6}, 6, 15},
		{"star", Params{"n": 9}, 9, 8},
		{"path", Params{"n": 5}, 5, 4},
		{"cycle", Params{"n": 7}, 7, 7},
		{"hypercube", Params{"d": 3}, 8, 12},
		{"hypercube", Params{"n": 9}, 8, 12}, // largest cube fitting in 9
		{"torus", Params{"rows": 3, "cols": 4}, 12, 24},
		{"grid", Params{"rows": 2, "cols": 3}, 6, 7},
		{"complete-bipartite", Params{"a": 3, "b": 4}, 7, 12},
		{"barbell", Params{"k": 4}, 8, 13},
	}
	for _, c := range cases {
		g, err := Build(c.family, c.params, xrand.New(1))
		if err != nil {
			t.Fatalf("%s: %v", c.family, err)
		}
		if g.N() != c.wantN || g.M() != c.wantM {
			t.Fatalf("%s%v: got n=%d m=%d, want n=%d m=%d", c.family, c.params, g.N(), g.M(), c.wantN, c.wantM)
		}
	}
}

func TestRegistryRandomFamiliesAreSeedDeterministic(t *testing.T) {
	cases := map[string]Params{
		"expander":       {"n": 40, "degree": 6},
		"er":             {"n": 40, "p": 0.2},
		"random-regular": {"n": 40, "d": 4},
	}
	for family, params := range cases {
		a, err := Build(family, params, xrand.New(9))
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		b, err := Build(family, params, xrand.New(9))
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if a.N() != b.N() || a.M() != b.M() {
			t.Fatalf("%s: same seed produced different graphs (n=%d/%d m=%d/%d)", family, a.N(), b.N(), a.M(), b.M())
		}
	}
}

func TestRegistryRejectsUnknownParamKeys(t *testing.T) {
	if _, err := Build("clique", Params{"n": 8, "degre": 3}, xrand.New(1)); err == nil {
		t.Fatal("misspelled parameter key must be rejected")
	}
	if _, err := Build("er", Params{"n": 8, "prob": 0.2}, xrand.New(1)); err == nil {
		t.Fatal("unknown parameter key must be rejected")
	}
}

func TestDefaultStart(t *testing.T) {
	star := Star(8, 0)
	if got := DefaultStart("star", Params{"n": 8}, star); got != 1 {
		t.Fatalf("star with center 0 must start at leaf 1, got %d", got)
	}
	offCenter := Star(8, 3)
	if got := DefaultStart("star", Params{"n": 8, "center": 3}, offCenter); got != 0 {
		t.Fatalf("star with center 3 must start at leaf 0, got %d", got)
	}
	if got := DefaultStart("clique", Params{"n": 8}, Clique(8)); got != 0 {
		t.Fatalf("families without a start designation default to 0, got %d", got)
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, err := Build("no-such-family", Params{"n": 4}, xrand.New(1)); err == nil {
		t.Fatal("unknown family must error")
	}
	if _, err := Build("clique", nil, xrand.New(1)); err == nil {
		t.Fatal("clique without n must error")
	}
	if _, err := Build("clique", Params{"n": 0}, xrand.New(1)); err == nil {
		t.Fatal("clique with n=0 must error")
	}
	if _, err := Build("star", Params{"n": 4, "center": 9}, xrand.New(1)); err == nil {
		t.Fatal("star with out-of-range center must error")
	}
	if _, err := Build("torus", Params{"rows": 3}, xrand.New(1)); err == nil {
		t.Fatal("torus without cols must error")
	}
}

func TestFamiliesSortedAndNonEmpty(t *testing.T) {
	fams := Families()
	if len(fams) < 10 {
		t.Fatalf("expected at least 10 registered families, got %v", fams)
	}
	for i := 1; i < len(fams); i++ {
		if fams[i-1] >= fams[i] {
			t.Fatalf("Families() not sorted: %v", fams)
		}
	}
	if _, ok := AllowedKeys("clique"); !ok {
		t.Fatal("clique not registered")
	}
	if _, ok := AllowedKeys("no-such-family"); ok {
		t.Fatal("unknown family reported as registered")
	}
}
