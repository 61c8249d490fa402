package infer

import (
	"testing"

	"repro/internal/lambda"
	"repro/internal/progen"
)

// FuzzLambdaPoly checks projected schemes against the full-fragment
// replay (newReference) on generated programs over the Figure 2
// lattice; the input seeds progen with a seed and a nesting depth. The
// projected verdict must equal the reference's, and a program the
// monomorphic checker accepts must be accepted polymorphically.
//
//	go test -fuzz=FuzzLambdaPoly -fuzztime=20s ./internal/infer
func FuzzLambdaPoly(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(2+seed))
	}
	set := fullSet(f)
	rules := Merge(ConstRules(set), NonzeroRules(set), BindingTimeRules(set))
	f.Fuzz(func(t *testing.T, seed int64, depth uint8) {
		prog := progen.New(seed, progen.Config{
			MaxDepth:      1 + int(depth%8),
			Annotate:      []string{"const", "dynamic"},
			AssertAbsent:  []string{"const", "dynamic"},
			NegAnnotate:   []string{"nonzero"},
			AssertPresent: []string{"nonzero"},
		}).Program()
		accepts := func(c *Checker) bool {
			res, err := c.Check(nil, prog)
			if err != nil {
				t.Fatalf("%v\n%s", err, lambda.Print(prog))
			}
			return len(res.Conflicts) == 0
		}
		mono := New(set, rules)
		mono.Monomorphic = true
		mok := accepts(mono)
		pok := accepts(New(set, rules))
		rok := accepts(newReference(set, rules))
		if pok != rok {
			t.Errorf("projection changed the verdict (projected=%v reference=%v):\n%s", pok, rok, lambda.Print(prog))
		}
		if mok && !pok {
			t.Errorf("mono accepts but poly rejects:\n%s", lambda.Print(prog))
		}
	})
}
