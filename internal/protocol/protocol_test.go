package protocol

import (
	"reflect"
	"testing"

	"qlec/internal/cluster"
)

func stubFactory(BuildContext) (cluster.Protocol, error) { return nil, nil }

func TestRegisterLookupAliases(t *testing.T) {
	r := NewRegistry()
	r.Register(Descriptor{ID: "Alpha", Aliases: []string{"a", "first"}, Order: 1, Factory: stubFactory})
	for _, name := range []string{"Alpha", "alpha", "ALPHA", "a", "A", "first", "FIRST"} {
		d, ok := r.Lookup(name)
		if !ok || d.ID != "Alpha" {
			t.Fatalf("Lookup(%q) = (%v, %v), want Alpha", name, d.ID, ok)
		}
	}
	if _, ok := r.Lookup("beta"); ok {
		t.Fatal("Lookup of unregistered name succeeded")
	}
	if !r.Known("first") || r.Known("beta") {
		t.Fatal("Known gave wrong answers")
	}
	if got := r.Canonical("FIRST"); got != "Alpha" {
		t.Fatalf("Canonical(FIRST) = %q, want Alpha", got)
	}
	if got := r.Canonical("nope"); got != "nope" {
		t.Fatalf("Canonical passes unknown names through, got %q", got)
	}
}

func TestRegisterPanicsOnDuplicates(t *testing.T) {
	cases := []struct {
		name string
		do   func(r *Registry)
	}{
		{"empty id", func(r *Registry) { r.Register(Descriptor{Factory: stubFactory}) }},
		{"nil factory", func(r *Registry) { r.Register(Descriptor{ID: "x"}) }},
		{"dup id", func(r *Registry) {
			r.Register(Descriptor{ID: "x", Factory: stubFactory})
			r.Register(Descriptor{ID: "x", Factory: stubFactory})
		}},
		{"dup id case-insensitive", func(r *Registry) {
			r.Register(Descriptor{ID: "x", Factory: stubFactory})
			r.Register(Descriptor{ID: "X", Factory: stubFactory})
		}},
		{"alias collides with id", func(r *Registry) {
			r.Register(Descriptor{ID: "x", Factory: stubFactory})
			r.Register(Descriptor{ID: "y", Aliases: []string{"x"}, Factory: stubFactory})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Register did not panic")
				}
			}()
			tc.do(NewRegistry())
		})
	}
}

func TestAllDeterministicOrder(t *testing.T) {
	build := func(order ...int) *Registry {
		// Register in the given (shuffled) order; All must not care.
		r := NewRegistry()
		names := []string{"c", "a", "b", "d"}
		ranks := []int{30, 10, 20, 20}
		for _, i := range order {
			r.Register(Descriptor{ID: names[i], Order: ranks[i], Factory: stubFactory})
		}
		return r
	}
	want := []string{"a", "b", "d", "c"} // rank 10, 20, 20 (tie → id), 30
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}} {
		var got []string
		for _, d := range build(order...).All() {
			got = append(got, d.ID)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("All() ids after registration order %v = %v, want %v", order, got, want)
		}
	}
}

func TestFigure3Ordering(t *testing.T) {
	r := NewRegistry()
	r.Register(Descriptor{ID: "third", Order: 1, Figure3Rank: 3, Factory: stubFactory})
	r.Register(Descriptor{ID: "extra", Order: 2, Factory: stubFactory})
	r.Register(Descriptor{ID: "first", Order: 3, Figure3Rank: 1, Factory: stubFactory})
	r.Register(Descriptor{ID: "second", Order: 4, Figure3Rank: 2, Factory: stubFactory})
	var got []string
	for _, d := range r.Figure3() {
		got = append(got, d.ID)
	}
	if want := []string{"first", "second", "third"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Figure3() = %v, want %v", got, want)
	}
}

func TestNearestSuggestsClosestName(t *testing.T) {
	r := NewRegistry()
	r.Register(Descriptor{ID: "QLEC", Factory: stubFactory})
	r.Register(Descriptor{ID: "k-means", Aliases: []string{"kmeans"}, Factory: stubFactory})
	r.Register(Descriptor{ID: "LEACH", Factory: stubFactory})
	cases := map[string]string{
		"QLEK":   "QLEC",
		"qlec2":  "QLEC",
		"kmeens": "k-means", // via the alias
		"leech":  "LEACH",
	}
	for in, want := range cases {
		if got := r.Nearest(in); got != want {
			t.Errorf("Nearest(%q) = %q, want %q", in, got, want)
		}
	}
	if got := NewRegistry().Nearest("x"); got != "" {
		t.Fatalf("empty registry Nearest = %q, want empty", got)
	}
}

func TestRegisterCopiesParams(t *testing.T) {
	r := NewRegistry()
	params := map[string]float64{"p": 1}
	r.Register(Descriptor{ID: "x", DefaultParams: params, Factory: stubFactory})
	params["p"] = 99
	d, _ := r.Lookup("x")
	if d.DefaultParams["p"] != 1 {
		t.Fatal("Register did not copy DefaultParams")
	}
}

func TestMergeParams(t *testing.T) {
	if MergeParams(nil, nil) != nil {
		t.Fatal("MergeParams(nil, nil) should be nil")
	}
	got := MergeParams(map[string]float64{"a": 1, "b": 2}, map[string]float64{"b": 3, "c": 4})
	want := map[string]float64{"a": 1, "b": 3, "c": 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MergeParams = %v, want %v", got, want)
	}
}

func TestBuildContextParam(t *testing.T) {
	b := BuildContext{Params: map[string]float64{"set": 2.5}}
	if got := b.Param("set", 1); got != 2.5 {
		t.Fatalf("Param(set) = %v, want 2.5", got)
	}
	if got := b.Param("unset", 1.5); got != 1.5 {
		t.Fatalf("Param(unset) = %v, want default 1.5", got)
	}
}

func TestInfosProjection(t *testing.T) {
	r := NewRegistry()
	r.Register(Descriptor{
		ID: "x", Aliases: []string{"ex"}, Paper: "p", Summary: "s",
		Order: 1, Figure3Rank: 2, Ablation: true,
		DefaultParams: map[string]float64{"q": 1},
		Factory:       stubFactory,
	})
	infos := r.Infos()
	if len(infos) != 1 {
		t.Fatalf("Infos len = %d", len(infos))
	}
	in := infos[0]
	if in.ID != "x" || in.Paper != "p" || in.Summary != "s" || in.Figure3Rank != 2 ||
		!in.Ablation || in.DefaultParams["q"] != 1 || len(in.Aliases) != 1 {
		t.Fatalf("Infos projection wrong: %+v", in)
	}
}
