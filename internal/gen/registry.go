package gen

import (
	"fmt"
	"math"
	"sort"

	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// Params carries the numeric parameters of a serializable network spec.
// JSON numbers decode to float64, so the map is float-valued; Int rounds to
// the nearest integer when an integer parameter is read, so values computed
// with float error by external tools do not shift a size off by one.
type Params map[string]float64

// Has reports whether the parameter is present.
func (p Params) Has(key string) bool {
	_, ok := p[key]
	return ok
}

// Int returns the parameter as an integer (rounded to nearest), or def when
// absent.
func (p Params) Int(key string, def int) int {
	v, ok := p[key]
	if !ok {
		return def
	}
	return int(math.Round(v))
}

// Float returns the parameter, or def when absent.
func (p Params) Float(key string, def float64) float64 {
	v, ok := p[key]
	if !ok {
		return def
	}
	return v
}

// NeedInt returns the mandatory integer parameter key, at least min; the
// family name only labels the error.
func (p Params) NeedInt(family, key string, min int) (int, error) {
	if !p.Has(key) {
		return 0, fmt.Errorf("network family %q requires parameter %q", family, key)
	}
	v := p.Int(key, 0)
	if v < min {
		return 0, fmt.Errorf("network family %q requires %s >= %d, got %d", family, key, min, v)
	}
	return v, nil
}

// CheckKeys rejects parameters outside the accepted set, so a misspelled key
// fails loudly instead of silently selecting the family's default value.
func (p Params) CheckKeys(family string, accepted []string) error {
	var unknown []string
	for key := range p {
		ok := false
		for _, a := range accepted {
			if key == a {
				ok = true
				break
			}
		}
		if !ok {
			unknown = append(unknown, fmt.Sprintf("%q", key))
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return fmt.Errorf("network family %q does not accept parameter(s) %s (accepted: %v)",
		family, joinComma(unknown), accepted)
}

func joinComma(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ", "
		}
		out += x
	}
	return out
}

// Factory builds a graph of one family from declarative parameters. Random
// families draw from rng; deterministic ones ignore it.
type Factory func(p Params, rng *xrand.RNG) (*graph.Graph, error)

// EmitScratch carries the recyclable working buffers an Emitter may need
// beyond the builder itself (currently a permutation slice). One scratch
// belongs to one batch worker; a nil scratch makes the emitter allocate
// fresh buffers.
type EmitScratch struct {
	// Perm is the permutation scratch of cycle-union constructions.
	Perm []int
}

// Emitter emits a family's edge set into a recycled builder (resetting the
// builder to the right vertex count first), so batch workers can rebuild a
// random family every repetition without allocating. An emitter must consume
// rng exactly as the family's Build does — draw for draw — so the two paths
// produce bit-identical graphs from equal generator states.
type Emitter func(b *graph.Builder, p Params, rng *xrand.RNG, sc *EmitScratch) error

// StartFunc designates the family's default start vertex for a built graph
// (e.g. a leaf of the star rather than its center).
type StartFunc func(p Params, g *graph.Graph) int

// Family describes one registered graph family: how to build it, which
// parameter keys it accepts, and (optionally) which vertex a rumor should
// start at by default.
type Family struct {
	// Build constructs the graph.
	Build Factory
	// Emit optionally emits the edge set into a recycled builder; nil means
	// the family only supports Build. When set, Emit and Build must agree
	// bit for bit (BuildInto uses Emit, Build may be implemented on top of
	// it).
	Emit Emitter
	// Keys lists the accepted parameter names; Build rejects others.
	Keys []string
	// Start designates the default start vertex; nil means vertex 0.
	Start StartFunc
	// Deterministic declares that Build never draws from its rng: equal
	// parameters always produce the identical graph. The batch engine relies
	// on this to build the graph once and share it read-only across every
	// repetition and worker — which cannot shift any repetition's RNG stream
	// precisely because no draws are skipped. The registry test suite
	// enforces the no-draw contract by building every deterministic family
	// with a nil rng.
	Deterministic bool
}

// families is the name → family registry behind serializable network specs.
var families = map[string]Family{}

// Register adds a graph family to the registry; it panics on duplicate names
// so two packages cannot silently fight over one.
func Register(name string, fam Family) {
	if _, dup := families[name]; dup {
		panic(fmt.Sprintf("gen: duplicate family %q", name))
	}
	if fam.Build == nil {
		panic(fmt.Sprintf("gen: family %q registered without a Build factory", name))
	}
	families[name] = fam
}

// Build constructs a graph of the named family, rejecting unknown parameter
// keys.
func Build(name string, p Params, rng *xrand.RNG) (*graph.Graph, error) {
	fam, ok := families[name]
	if !ok {
		return nil, fmt.Errorf("gen: unknown graph family %q", name)
	}
	if err := p.CheckKeys(name, fam.Keys); err != nil {
		return nil, err
	}
	return fam.Build(p, rng)
}

// BuildInto constructs a graph of the named family through a recycled
// builder and graph buffer when the family has an emitter, falling back to a
// fresh Build otherwise. b must not be nil; dst and sc may be nil (a graph
// resp. fresh emitter buffers are then allocated) and are only reused on the
// emitter path — callers check the returned pointer, exactly as with
// Builder.BuildInto. This is the batch engine's steady-state path for
// rebuilding random static families once per repetition without allocating.
func BuildInto(name string, p Params, rng *xrand.RNG, b *graph.Builder, dst *graph.Graph, sc *EmitScratch) (*graph.Graph, error) {
	fam, ok := families[name]
	if !ok {
		return nil, fmt.Errorf("gen: unknown graph family %q", name)
	}
	if err := p.CheckKeys(name, fam.Keys); err != nil {
		return nil, err
	}
	if fam.Emit == nil {
		return fam.Build(p, rng)
	}
	if err := fam.Emit(b, p, rng, sc); err != nil {
		return nil, err
	}
	return b.BuildInto(dst), nil
}

// IsDeterministic reports whether the named family declares the no-draw
// contract (see Family.Deterministic); false for unknown families.
func IsDeterministic(name string) bool {
	return families[name].Deterministic
}

// DefaultStart returns the family's designated start vertex for a graph
// built from the given parameters (vertex 0 unless the family declares
// otherwise).
func DefaultStart(name string, p Params, g *graph.Graph) int {
	fam, ok := families[name]
	if !ok || fam.Start == nil {
		return 0
	}
	return fam.Start(p, g)
}

// AllowedKeys returns the accepted parameter names of a family.
func AllowedKeys(name string) ([]string, bool) {
	fam, ok := families[name]
	return fam.Keys, ok
}

// Families returns the registered family names in sorted order.
func Families() []string {
	out := make([]string, 0, len(families))
	for name := range families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// hypercubeDim derives the dimension from either an explicit "d" or the
// largest hypercube fitting inside "n" vertices (the CLI's historical rule).
func hypercubeDim(p Params) (int, error) {
	if p.Has("d") {
		d := p.Int("d", 0)
		if d < 0 || d > 30 {
			return 0, fmt.Errorf("gen: hypercube dimension %d out of range [0, 30]", d)
		}
		return d, nil
	}
	n, err := p.NeedInt("hypercube", "n", 1)
	if err != nil {
		return 0, err
	}
	d := 0
	for 1<<uint(d+1) <= n {
		d++
	}
	return d, nil
}

func init() {
	Register("clique", Family{Deterministic: true, Keys: []string{"n"}, Build: func(p Params, _ *xrand.RNG) (*graph.Graph, error) {
		n, err := p.NeedInt("clique", "n", 1)
		if err != nil {
			return nil, err
		}
		return Clique(n), nil
	}})
	Register("star", Family{
		Deterministic: true,
		Keys:          []string{"n", "center"},
		Build: func(p Params, _ *xrand.RNG) (*graph.Graph, error) {
			n, err := p.NeedInt("star", "n", 1)
			if err != nil {
				return nil, err
			}
			center := p.Int("center", 0)
			if center < 0 || center >= n {
				return nil, fmt.Errorf("gen: star center %d out of range [0, %d)", center, n)
			}
			return Star(n, center), nil
		},
		// A rumor started at the center trivializes the process; default to
		// a leaf (the historical CLI behaviour).
		Start: func(p Params, g *graph.Graph) int {
			if g.N() < 2 {
				return 0
			}
			if p.Int("center", 0) == 0 {
				return 1
			}
			return 0
		},
	})
	Register("path", Family{Deterministic: true, Keys: []string{"n"}, Build: func(p Params, _ *xrand.RNG) (*graph.Graph, error) {
		n, err := p.NeedInt("path", "n", 1)
		if err != nil {
			return nil, err
		}
		return Path(n), nil
	}})
	Register("cycle", Family{Deterministic: true, Keys: []string{"n"}, Build: func(p Params, _ *xrand.RNG) (*graph.Graph, error) {
		n, err := p.NeedInt("cycle", "n", 1)
		if err != nil {
			return nil, err
		}
		return Cycle(n), nil
	}})
	Register("hypercube", Family{Deterministic: true, Keys: []string{"n", "d"}, Build: func(p Params, _ *xrand.RNG) (*graph.Graph, error) {
		d, err := hypercubeDim(p)
		if err != nil {
			return nil, err
		}
		return Hypercube(d), nil
	}})
	Register("torus", Family{Deterministic: true, Keys: []string{"rows", "cols"}, Build: func(p Params, _ *xrand.RNG) (*graph.Graph, error) {
		rows, err := p.NeedInt("torus", "rows", 1)
		if err != nil {
			return nil, err
		}
		cols, err := p.NeedInt("torus", "cols", 1)
		if err != nil {
			return nil, err
		}
		return Torus(rows, cols), nil
	}})
	Register("grid", Family{Deterministic: true, Keys: []string{"rows", "cols"}, Build: func(p Params, _ *xrand.RNG) (*graph.Graph, error) {
		rows, err := p.NeedInt("grid", "rows", 1)
		if err != nil {
			return nil, err
		}
		cols, err := p.NeedInt("grid", "cols", 1)
		if err != nil {
			return nil, err
		}
		return Grid(rows, cols), nil
	}})
	Register("complete-bipartite", Family{Deterministic: true, Keys: []string{"a", "b"}, Build: func(p Params, _ *xrand.RNG) (*graph.Graph, error) {
		a, err := p.NeedInt("complete-bipartite", "a", 1)
		if err != nil {
			return nil, err
		}
		b, err := p.NeedInt("complete-bipartite", "b", 1)
		if err != nil {
			return nil, err
		}
		return CompleteBipartite(a, b), nil
	}})
	Register("barbell", Family{Deterministic: true, Keys: []string{"k"}, Build: func(p Params, _ *xrand.RNG) (*graph.Graph, error) {
		k, err := p.NeedInt("barbell", "k", 1)
		if err != nil {
			return nil, err
		}
		return Barbell(k), nil
	}})
	Register("expander", Family{
		Keys: []string{"n", "degree"},
		Build: func(p Params, rng *xrand.RNG) (*graph.Graph, error) {
			n, err := p.NeedInt("expander", "n", 1)
			if err != nil {
				return nil, err
			}
			return Expander(n, p.Int("degree", 6), rng), nil
		},
		Emit: func(b *graph.Builder, p Params, rng *xrand.RNG, sc *EmitScratch) error {
			n, err := p.NeedInt("expander", "n", 1)
			if err != nil {
				return err
			}
			var perm *[]int
			if sc != nil {
				perm = &sc.Perm
			}
			AppendExpander(b, n, p.Int("degree", 6), rng, perm)
			return nil
		},
	})
	Register("er", Family{
		Keys: []string{"n", "p"},
		Build: func(p Params, rng *xrand.RNG) (*graph.Graph, error) {
			n, err := p.NeedInt("er", "n", 1)
			if err != nil {
				return nil, err
			}
			return ErdosRenyi(n, p.Float("p", 0.05), rng), nil
		},
		Emit: func(b *graph.Builder, p Params, rng *xrand.RNG, _ *EmitScratch) error {
			n, err := p.NeedInt("er", "n", 1)
			if err != nil {
				return err
			}
			AppendErdosRenyi(b, n, p.Float("p", 0.05), rng)
			return nil
		},
	})
	Register("random-regular", Family{Keys: []string{"n", "d"}, Build: func(p Params, rng *xrand.RNG) (*graph.Graph, error) {
		n, err := p.NeedInt("random-regular", "n", 1)
		if err != nil {
			return nil, err
		}
		return RandomRegular(n, p.Int("d", 3), rng)
	}})
}
