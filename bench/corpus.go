package main

// Inputs. Every input is a pure function of the seed: the C programs come
// from the repository's paper-shaped generator (internal/benchgen), the Go
// inputs are frozen copies under testdata/ so that a change to the
// repository's own packages or examples never changes what is measured.

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/benchgen"
)

// goSelfDigest is the SHA-256 of the frozen go-self snapshot
// (testdata/goself: go.mod plus the 76 non-test internal/**/*.go files of
// the commit that introduced the benchmark), as snapshotDigest computes
// it. Setup refuses to run go-self on any other content.
const goSelfDigest = "2357c75a1aaec6dc180cc1b505a599533d63d27efffaa946b806c8bf156c0119"

// snapshotDigest hashes every regular file under root, in path order,
// with length-prefixed paths and contents.
func snapshotDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return err
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		fmt.Fprintf(h, "%d:%s%d:", len(rel), rel, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// cProgram is the generated C program of about lines lines for seed.
func cProgram(lines int, seed int64) string {
	return benchgen.Generate(benchgen.ParallelCorpus(lines, seed))
}

var (
	runHead    = regexp.MustCompile(`(?m)^static int (run\d+)\(int n\) \{$`)
	readerHead = regexp.MustCompile(`(?m)^static int rd\d+_(\d+)\((const )?char \*s\) \{$`)
	helperHead = regexp.MustCompile(`(?m)^static int calc\d+_\d+\(int a, int b\) \{$`)
)

// splitProgram cuts a generated program into n translation units at group
// boundaries, as a real project spreads one program over files: the first
// unit defines the globals, the others declare them extern, and the last
// also holds main, calling the group drivers (no longer static) through
// prototypes.
func splitProgram(text string, n int) ([]string, error) {
	const globals = "static char g_scratch[256];\n\n"
	hEnd := strings.Index(text, globals)
	mainAt := strings.Index(text, "int main(int argc, char **argv) {\n")
	if hEnd < 0 || mainAt < 0 {
		return nil, fmt.Errorf("split: not a generated program")
	}
	hEnd += len(globals)
	header := text[:hEnd]

	var groups []string
	var protos strings.Builder
	at := hEnd
	for _, m := range runHead.FindAllStringSubmatchIndex(text, -1) {
		end := strings.Index(text[m[1]:], "\n}\n\n")
		if end < 0 {
			return nil, fmt.Errorf("split: unterminated %s", text[m[2]:m[3]])
		}
		end += m[1] + len("\n}\n\n")
		groups = append(groups, strings.Replace(text[at:end], "\nstatic int run", "\nint run", 1))
		fmt.Fprintf(&protos, "int %s(int n);\n", text[m[2]:m[3]])
		at = end
	}
	if len(groups) < n || at != mainAt {
		return nil, fmt.Errorf("split: %d groups for %d files", len(groups), n)
	}

	files := make([]string, n)
	for k := range files {
		var b strings.Builder
		if k == 0 {
			b.WriteString(strings.ReplaceAll(header, "\nstatic ", "\n"))
		} else {
			b.WriteString(strings.ReplaceAll(header, "\nstatic ", "\nextern "))
		}
		for _, g := range groups[k*len(groups)/n : (k+1)*len(groups)/n] {
			b.WriteString(g)
		}
		if k == n-1 {
			b.WriteString(protos.String())
			b.WriteString("\n")
			b.WriteString(text[mainAt:])
		}
		files[k] = b.String()
	}
	return files, nil
}

// edit is one step of a daemon-edit script: file index and its edited
// text, with every other file at its base version.
type edit struct {
	file int
	text string
}

// editKinds fixes the shape of every edit script: step j edits file
// j mod 8 with kind editKinds[(j + j/8) mod 4], so each file sees two
// different kinds per script, always in the middle function of that kind
// (a file with no writable reader gets a reader edit instead).
// Every edit rewrites one line in place, as typing inside a function body
// does: a "writer" edit turns a reader's assignment to a local into a
// write through its parameter; "reader" and "helper" edits change a
// digit of a constant, which leaves the qualifier constraints as they
// were. No edit moves a line or adds a variable, so the session's
// fragments outside the edited function keep their keys.
var editKinds = [4]string{"writer", "reader", "helper", "reader"}

var (
	// readerAssign is the one assignment to a local in the reader shapes
	// that have one.
	readerAssign = regexp.MustCompile(`(?m)^\t\t([hv]) = ([hv] \* \d+ \+ .*);$`)
	firstNumber  = regexp.MustCompile(`\d+`)
)

// editScript builds the editSteps one-line edits over the files. A writer
// edit only ever hits an undeclared reader its group driver calls with a
// local buffer, so no edit makes the program ill-qualified.
func editScript(files []string) ([]edit, error) {
	var script []edit
	for j := range editSteps {
		f := j % len(files)
		text := files[f]
		var readers, writable [][]int
		for _, m := range readerHead.FindAllStringSubmatchIndex(text, -1) {
			readers = append(readers, m)
			var k int
			fmt.Sscan(text[m[2]:m[3]], &k)
			if m[4] < 0 && k%2 == 0 && readerAssign.MatchString(body(text, m[1])) {
				writable = append(writable, m)
			}
		}
		helpers := helperHead.FindAllStringIndex(text, -1)
		if len(readers) == 0 || len(helpers) == 0 {
			return nil, fmt.Errorf("edit script: file %d has no reader or no helper", f)
		}
		head, rewrite := readers[len(readers)/2][1], bumpDigit
		switch editKinds[(j+j/len(files))%len(editKinds)] {
		case "writer":
			if len(writable) > 0 {
				head = writable[len(writable)/2][1]
				rewrite = func(b string) string { return readerAssign.ReplaceAllString(b, "\t\t*s = $2;") }
			}
		case "helper":
			head = helpers[len(helpers)/2][1]
		}
		start := head + 1
		end := start + len(body(text, head))
		script = append(script, edit{f, text[:start] + rewrite(text[start:end]) + text[end:]})
	}
	return script, nil
}

// bumpDigit adds one, modulo 10, to the last digit of the first number in
// b: a new constant of the same width.
func bumpDigit(b string) string {
	i := firstNumber.FindStringIndex(b)[1] - 1
	return b[:i] + string('0'+(b[i]-'0'+1)%10) + b[i+1:]
}

// body is the body of the function whose opening line ends at headEnd:
// the text up to its closing brace.
func body(text string, headEnd int) string {
	start := headEnd + 1
	return text[start : start+strings.Index(text[start:], "\n}\n")]
}

// goFD is the hand-written Go fd-state program with its prelude and the
// conflicts its expected output lists, frozen from examples/go-fdstate.
type goFD struct {
	text, prelude string
	want          []string // "line:col" of every expected conflict
}

var expectedConflict = regexp.MustCompile(`(?m)main\.go:(\d+:\d+): error:`)

func loadGoFD(dir string) (goFD, error) {
	var g goFD
	read := func(name string) (string, error) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		return string(data), err
	}
	var err error
	if g.text, err = read("main.go"); err != nil {
		return g, err
	}
	if g.prelude, err = read("fd.q"); err != nil {
		return g, err
	}
	exp, err := read("expected_dirty.txt")
	if err != nil {
		return g, err
	}
	for _, m := range expectedConflict.FindAllStringSubmatch(exp, -1) {
		g.want = append(g.want, m[1])
	}
	if len(g.want) == 0 {
		return g, fmt.Errorf("%s: no expected conflicts", dir)
	}
	return g, nil
}
