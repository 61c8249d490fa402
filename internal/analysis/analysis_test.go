package analysis

import (
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/qual"
)

func TestRegistryBuiltins(t *testing.T) {
	for _, name := range []string{"const", "taint"} {
		a, ok := Lookup(name)
		if !ok {
			t.Fatalf("builtin analysis %q not registered", name)
		}
		if a.Name != name {
			t.Errorf("Lookup(%q).Name = %q", name, a.Name)
		}
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
	if c, _ := Lookup("const"); c.Qual.Sign != qual.Positive {
		t.Error("const is not a positive qualifier")
	}
	tt, _ := Lookup("taint")
	if tt.Qual.Sign != qual.Negative || tt.Qual.NegName != "tainted" {
		t.Errorf("taint qualifier = %+v", tt.Qual)
	}
	if !tt.WantsPrelude {
		t.Error("taint does not want a prelude")
	}
	if got := tt.AnnotationNames(); len(got) != 2 || got[0] != "tainted" || got[1] != "untainted" {
		t.Errorf("taint vocabulary = %v", got)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, a *Analysis) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%s) did not panic", name)
			}
		}()
		Register(a)
	}
	mustPanic("empty", &Analysis{})
	mustPanic("duplicate", &Analysis{Name: "const"})
}

func TestNewSuiteErrors(t *testing.T) {
	if _, err := NewSuite([]string{"nonsense"}, nil); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown analysis error = %v", err)
	}
	if _, err := NewSuite([]string{"const", "const"}, nil); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate analysis error = %v", err)
	}
	pre, err := ParsePrelude("t.q", "analysis taint\ngetenv(_) -> tainted\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSuite([]string{"const"}, []*Prelude{pre}); err == nil || !strings.Contains(err.Error(), "not enabled") {
		t.Errorf("prelude for disabled analysis error = %v", err)
	}
}

func TestDefaultSuite(t *testing.T) {
	s := Default()
	if got := s.Names(); len(got) != 1 || got[0] != "const" {
		t.Errorf("Default().Names() = %v", got)
	}
	if b := s.Binding("const"); b == nil || b.A.Name != "const" {
		t.Errorf("Default const binding = %+v", b)
	}
}

// TestBindingApply checks the lattice orientation of seeds and sinks for
// the negative taint qualifier: a seed introduces the tainted (top)
// component value, a sink upper-bounds with untainted (bottom), and a
// variable carrying both is a conflict.
func TestBindingApply(t *testing.T) {
	suite, err := NewSuite([]string{"taint"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := suite.Binding("taint")
	sys := constraint.NewSystem(suite.Set())
	v := sys.Fresh()
	b.Apply(sys, "tainted", constraint.V(v), constraint.Reason{Msg: "seed"})
	b.Apply(sys, "untainted", constraint.V(v), constraint.Reason{Msg: "sink"})
	unsat := sys.Solve()
	if len(unsat) != 1 {
		t.Fatalf("seed+sink on one var: %d conflicts, want 1", len(unsat))
	}
	if got := unsat[0].Con.Why.Msg; got != "sink" {
		t.Errorf("conflict surfaced at %q, want the sink constraint", got)
	}
	if sys.Lower(v)&b.Mask == 0 {
		t.Error("seed did not raise the taint component of the variable")
	}

	// The untainted seed value is the component bottom, so seeding it is
	// a no-op; likewise a tainted "sink" would be the component top.
	sys2 := constraint.NewSystem(suite.Set())
	w := sys2.Fresh()
	b.Apply(sys2, "untainted", constraint.V(w), constraint.Reason{Msg: "sink"})
	if n := sys2.NumConstraints(); n != 1 {
		t.Errorf("sink emitted %d constraints, want 1", n)
	}
	if got := sys2.Solve(); len(got) != 0 {
		t.Errorf("sink alone conflicts: %v", got)
	}
}

func TestSuiteOwner(t *testing.T) {
	suite, err := NewSuite([]string{"const", "taint"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	constMask := suite.Binding("const").Mask
	taintMask := suite.Binding("taint").Mask
	if constMask == taintMask {
		t.Fatalf("analyses share a component: %x", constMask)
	}
	if got := suite.Owner(constMask); got != "const" {
		t.Errorf("Owner(const component) = %q", got)
	}
	if got := suite.Owner(taintMask); got != "taint" {
		t.Errorf("Owner(taint component) = %q", got)
	}
	if got := suite.Owner(0); got != "" {
		t.Errorf("Owner(0) = %q, want empty", got)
	}
}

// TestSuiteHooks pins the suite's hook dispatch: each method runs the
// hook of every binding that has one, and the calls the C translator
// makes for every reference (DeclQual with no declared const) and every
// return (Return when no analysis has the hook) allocate nothing.
func TestSuiteHooks(t *testing.T) {
	suite, err := NewSuite([]string{"const", "fdstate", "unique"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys := constraint.NewSystem(suite.Set())
	q, g := constraint.V(sys.Fresh()), constraint.V(sys.Fresh())
	pos := constraint.Pos{File: "f.c", Line: 3}
	for _, c := range []struct {
		name string
		fire func()
		want int // constraints added
	}{
		{"DeclQual undeclared", func() { suite.DeclQual(sys, q, false, pos) }, 0},
		{"DeclQual declared (const)", func() { suite.DeclQual(sys, q, true, pos) }, 1},
		{"Write (const, unique)", func() { suite.Write(sys, q, []constraint.Term{g}, constraint.Reason{}) }, 4},
		{"Return (fdstate)", func() { suite.Return(sys, q, pos, "f") }, 1},
	} {
		before := sys.NumConstraints()
		c.fire()
		if got := sys.NumConstraints() - before; got != c.want {
			t.Errorf("%s added %d constraints, want %d", c.name, got, c.want)
		}
	}

	constOnly := Default()
	csys := constraint.NewSystem(constOnly.Set())
	v := constraint.V(csys.Fresh())
	if n := testing.AllocsPerRun(100, func() {
		constOnly.DeclQual(csys, v, false, pos)
		constOnly.Return(csys, v, pos, "f")
	}); n != 0 {
		t.Errorf("DeclQual and Return with nothing to add: %v allocations, want 0", n)
	}
}
