package repro

import (
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
)

// splitKappa splits s at its κ labels (κ followed by at least one
// digit): labels holds the labels' numbers in order, and text the text
// around them, one segment more than there are labels.
func splitKappa(s string) (text, labels []string) {
	last := 0
	for i := 0; i < len(s); i++ {
		if !strings.HasPrefix(s[i:], "κ") {
			continue
		}
		j := i + len("κ")
		k := j
		for k < len(s) && '0' <= s[k] && s[k] <= '9' {
			k++
		}
		if k > j {
			text = append(text, s[last:i])
			labels = append(labels, s[j:k])
			last, i = k, k-1
		}
	}
	return append(text, s[last:]), labels
}

// kappaEqual reports, as a nil error, that a and b are equal up to a
// bijective renaming of κ labels: the text around the labels is equal,
// and one bijection, built in order of first appearance, maps a's
// labels onto b's. A label that would map two ways, or two labels that
// would map to one, make the outputs differ: κ3 ⊑ κ4 is not κ3 ⊑ κ3.
func kappaEqual(a, b string) error {
	ta, la := splitKappa(a)
	tb, lb := splitKappa(b)
	fwd := make(map[string]string, len(la))
	rev := make(map[string]string, len(la))
	for i := range min(len(la), len(lb)) {
		if ta[i] != tb[i] {
			return fmt.Errorf("text before κ label %d differs: %q, %q", i, ta[i], tb[i])
		}
		x, y := la[i], lb[i]
		if m, ok := fwd[x]; ok && m != y {
			return fmt.Errorf("κ%s maps to both κ%s and κ%s", x, m, y)
		}
		if m, ok := rev[y]; ok && m != x {
			return fmt.Errorf("κ%s and κ%s both map to κ%s", m, x, y)
		}
		fwd[x], rev[y] = y, x
	}
	if len(la) != len(lb) {
		return fmt.Errorf("%d κ labels against %d", len(la), len(lb))
	}
	if ta[len(la)] != tb[len(lb)] {
		return fmt.Errorf("text after the last κ label differs: %q, %q", ta[len(la)], tb[len(lb)])
	}
	return nil
}

// joinKappa is splitKappa's inverse, with every label renamed by rename.
func joinKappa(text, labels []string, rename func(string) string) string {
	var b strings.Builder
	for i, l := range labels {
		b.WriteString(text[i])
		b.WriteString("κ" + rename(l))
	}
	b.WriteString(text[len(labels)])
	return b.String()
}

// TestKappaEqual holds kappaEqual to its definition on
// constraints.golden: a permutation of its κ labels is equal to it, and
// swapping one edge's endpoints is not, although erasing the labels
// cannot tell the two apart.
func TestKappaEqual(t *testing.T) {
	data, err := os.ReadFile("internal/constinfer/testdata/constraints.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := string(data)
	if err := kappaEqual(golden, golden); err != nil {
		t.Errorf("golden against itself: %v", err)
	}

	text, labels := splitKappa(golden)
	if got := joinKappa(text, labels, func(l string) string { return l }); got != golden {
		t.Fatal("splitKappa and joinKappa do not round-trip the golden")
	}
	var distinct []string
	seen := map[string]bool{}
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			distinct = append(distinct, l)
		}
	}
	perm := rand.New(rand.NewSource(1)).Perm(len(distinct))
	to := make(map[string]string, len(distinct))
	for i, l := range distinct {
		to[l] = distinct[perm[i]]
	}
	permuted := joinKappa(text, labels, func(l string) string { return to[l] })
	if permuted == golden {
		t.Fatal("the permutation left the golden unchanged")
	}
	if err := kappaEqual(golden, permuted); err != nil {
		t.Errorf("golden against its κ permutation: %v", err)
	}

	// Swap the endpoints of the first edge both of whose variables
	// occur on an earlier line, so no renaming can undo the swap.
	edge := regexp.MustCompile(`^κ(\d+) ⊑ κ(\d+) `)
	label := regexp.MustCompile(`κ(\d+)`)
	lines := strings.SplitAfter(golden, "\n")
	earlier := map[string]bool{}
	swapped := ""
	for i, line := range lines {
		if m := edge.FindStringSubmatch(line); m != nil && m[1] != m[2] && earlier[m[1]] && earlier[m[2]] {
			lines[i] = "κ" + m[2] + " ⊑ κ" + m[1] + line[len(m[0])-1:]
			swapped = strings.Join(lines, "")
			break
		}
		for _, l := range label.FindAllStringSubmatch(line, -1) {
			earlier[l[1]] = true
		}
	}
	if swapped == "" {
		t.Fatal("no edge to swap in the golden")
	}
	if err := kappaEqual(golden, swapped); err == nil {
		t.Error("golden equals itself with one edge's endpoints swapped")
	}
	if label.ReplaceAllString(golden, "κ#") != label.ReplaceAllString(swapped, "κ#") {
		t.Error("erasing the labels already tells the swapped edge apart; the case shows nothing")
	}

	for _, c := range []struct {
		a, b  string
		equal bool
	}{
		{"κ1 ⊑ κ2", "κ7 ⊑ κ9", true},
		{"κ1 ⊑ κ2", "κ3 ⊑ κ3", false},
		{"κ1 ⊑ κ1", "κ3 ⊑ κ4", false},
		{"κ1 ⊑ κ2, κ2 ⊑ κ1", "κ2 ⊑ κ1, κ1 ⊑ κ2", true},
		{"κ1 ⊑ κ2", "κ1 ⊑ κ2 ", false},
		{"κ1 ⊑ κ2", "κ1 ⊑ κ2 ⊑ κ3", false},
		{"κ ⊑ κ1", "κ ⊑ κ5", true},
		{"κ12", "κ1 2", false},
	} {
		if err := kappaEqual(c.a, c.b); (err == nil) != c.equal {
			t.Errorf("kappaEqual(%q, %q) = %v, want equal=%v", c.a, c.b, err, c.equal)
		}
	}
}
