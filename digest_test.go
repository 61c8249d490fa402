package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchgen"
)

// outputDigests holds the SHA-256 of cqual's output over the ~20k-line
// parallel corpus (seed 11) in four modes, JSON reports without their
// timings block. A change meant to leave every output byte alone, such
// as a change of record layout or allocation, must leave them alone
// too. A change that moves the output on purpose (a κ renumbering, a
// new verdict) updates them with the evidence that the new output is
// right, e.g. that it equals the old one up to κ renaming (kappaEqual).
var outputDigests = []struct {
	args   []string
	digest string
}{
	{[]string{"-json"}, "f110a62f5ddb0f48d1b6e430a20fca0061ec935c403b173a160ef6e5979cb834"},
	{[]string{"-poly", "-json"}, "51d232fbae0fec1ca8f04ed91b108ec059c69cf9815e285fc1b9f09615bf6fc2"},
	{[]string{"-poly", "-schemes"}, "87381fc997c972da629709e2e9cd7957d487faa0e58fc3b3e7e2b8d6bc8c3d38"},
	{[]string{"-v", "-suggest", "-uninit"}, "7bd89bb1623c1ab42172e4aba9810c182d20487695e765026e8d5d23ca56b542"},
}

// TestCqualOutputDigests runs cqual over benchgen.ParallelCorpus(20_000,
// 11) in each mode of outputDigests and compares the digest of the
// output with the committed one. On a mismatch it keeps the output in a
// file and names it, to diff against an older build's.
func TestCqualOutputDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI tests in -short mode")
	}
	bin := buildCqual(t)
	dir := t.TempDir()
	src := benchgen.Generate(benchgen.ParallelCorpus(20_000, 11))
	if err := os.WriteFile(filepath.Join(dir, "synth.c"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, m := range outputDigests {
		mode := strings.Join(m.args, " ")
		cmd := exec.Command(bin, append(m.args, "synth.c")...)
		cmd.Dir = dir // positions name the file as given
		out, err := cmd.Output()
		if err != nil {
			t.Errorf("cqual %s synth.c: %v", mode, err)
			continue
		}
		if strings.Contains(mode, "-json") {
			out = []byte(stripTimings(string(out)))
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != m.digest {
			keep, err := os.CreateTemp("", "cqual-digest-*.out")
			if err == nil {
				_, err = keep.Write(out)
				keep.Close()
			}
			if err != nil {
				t.Errorf("cqual %s: digest %s, want %s (keeping the output failed: %v)", mode, got, m.digest, err)
				continue
			}
			t.Errorf("cqual %s: digest %s, want %s; output kept in %s", mode, got, m.digest, keep.Name())
		}
	}
}
