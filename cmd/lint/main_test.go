package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// repo is the whole module, loaded and linted once for every test that
// reads it: type-checking the module is most of what a lint run costs.
var repo struct {
	once  sync.Once
	m     *loaded
	diags []analysis.Diagnostic
	err   error
}

func repoLint(t *testing.T) (*loaded, []analysis.Diagnostic) {
	t.Helper()
	repo.once.Do(func() {
		if repo.m, repo.err = load(".", []string{"./..."}); repo.err == nil {
			repo.diags, repo.err = repo.m.lint()
		}
	})
	if repo.err != nil {
		t.Fatalf("lint failed to run: %v", repo.err)
	}
	return repo.m, repo.diags
}

// TestRepoLintsClean runs the real multichecker — same loader, same
// analyzers, same suppression — over the entire module and demands
// zero findings. This is the acceptance gate: if a wall-clock call, an
// unordered map emission, a naked sentinel comparison, or a baked-in
// seed lands anywhere in the repo, this test fails before CI's
// dedicated lint step even runs.
func TestRepoLintsClean(t *testing.T) {
	_, diags := repoLint(t)
	if len(diags) != 0 {
		var out bytes.Buffer
		writeText(&out, diags)
		t.Errorf("lint found %d problem(s) in the repo:\n%s", len(diags), out.String())
	}
}

// writeModule lays files (module-relative path → content) out under a
// fresh temporary directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// plantUser keeps the planted package's exports alive, so deadexport
// reports only what a test seeds as dead.
const plantUser = `package main

import (
	"os"

	"plant/internal/sim"
)

func main() {
	sim.Emit(os.Stdout, nil)
	sim.Check(nil)
	sim.NewGen()
}
`

// TestLintCatchesPlant runs the multichecker over a scratch module
// containing one violation of each analyzer's contract, pinning that
// the ./... path (pattern expansion, scoping, loading) actually
// reaches and reports them — a self-test that the gate has teeth.
func TestLintCatchesPlant(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":          "module plant\n\ngo 1.22\n",
		"cmd/use/main.go": plantUser,
		"internal/sim/x.go": `package sim

import (
	"fmt"
	"io"
	"math/rand/v2"
	"time"
)

var ErrBoom = fmt.Errorf("boom")

func Emit(w io.Writer, m map[string]int) {
	_ = time.Now()
	_ = rand.Int()
	for k := range m {
		fmt.Fprintln(w, k)
	}
}

func Check(err error) bool { return err == ErrBoom }

func NewGen() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }
`})
	m, err := load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("lint failed to run: %v", err)
	}
	diags, err := m.lint()
	if err != nil {
		t.Fatalf("lint failed to run: %v", err)
	}
	n := len(diags)
	var out bytes.Buffer
	writeText(&out, diags)
	// One finding per contract break: time.Now + rand.Int (detlint),
	// Fprintln-in-map-range (maporder), == ErrBoom (errwrap),
	// constant-seeded NewGen (seedplumb).
	if n != 5 {
		t.Errorf("planted module: lint found %d problem(s), want 5:\n%s", n, out.String())
	}
	for _, category := range []string{"detlint", "maporder", "errwrap", "seedplumb"} {
		if !bytes.Contains(out.Bytes(), []byte("["+category+"]")) {
			t.Errorf("planted module: no %s finding in output:\n%s", category, out.String())
		}
	}

	// The same findings through -json: a parseable array with populated
	// positions.
	var jsonOut bytes.Buffer
	if err := writeJSON(&jsonOut, diags); err != nil {
		t.Fatal(err)
	}
	var findings []Finding
	if err := json.Unmarshal(jsonOut.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, jsonOut.String())
	}
	if len(findings) != 5 {
		t.Fatalf("-json reported %d findings, want 5", len(findings))
	}
	checks := make(map[string]bool)
	for _, f := range findings {
		checks[f.Check] = true
		if f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("finding with missing fields: %+v", f)
		}
	}
	for _, category := range []string{"detlint", "maporder", "errwrap", "seedplumb"} {
		if !checks[category] {
			t.Errorf("-json output missing a %s finding", category)
		}
	}
}

// TestDeadExportExitsOne builds the real command and runs it over a
// module whose only blemishes are one exported function nothing calls
// and one option field nothing sets: the findings must name them and the
// process must exit 1, which is what fails `make lint` and the CI step.
func TestDeadExportExitsOne(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "lint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/lint: %v\n%s", err, out)
	}
	dir := writeModule(t, map[string]string{
		"go.mod":            "module plant\n\ngo 1.22\n",
		"cmd/use/main.go":   "package main\n\nimport \"plant/internal/sim\"\n\nfunc main() { sim.Live(sim.Opts{Set: 1}) }\n",
		"internal/sim/x.go": "package sim\n\ntype Opts struct{ Set, Never int }\n\nfunc Live(o Opts) int { return o.Set + o.Never }\n\nfunc Dead() {}\n",
	})
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("lint over a seeded dead export: err = %v, want exit status 1\n%s", err, out)
	}
	for _, want := range []string{"[deadexport] exported function Dead", "[deadexport] exported field Opts.Never", "lint: 2 problem(s)"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("want the Dead and Opts.Never findings and nothing else, missing %q in:\n%s", want, out)
		}
	}
}

// TestLintJSONCleanIsEmptyArray: a clean run emits [], not null — CI
// tooling gets an array either way.
func TestLintJSONCleanIsEmptyArray(t *testing.T) {
	_, diags := repoLint(t)
	var out bytes.Buffer
	if err := writeJSON(&out, diags); err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("the repo lints dirty: %s", out.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("clean -json output = %q, want []", out.String())
	}
}

// TestSpecFilesMatchCommitted is the drift gate run in-process:
// regenerating every matched spec must reproduce the committed files
// byte for byte. CI enforces the same with -write-specs + git diff.
func TestSpecFilesMatchCommitted(t *testing.T) {
	m, _ := repoLint(t)
	files := m.specFiles()
	if len(files) == 0 {
		t.Fatal("no packages with protection regions found; expected internal/kernels")
	}
	sawKernels := false
	for path, content := range files {
		if filepath.Base(path) == "kernels.ckptspec" {
			sawKernels = true
		}
		committed, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: computed but not committed (%v); run `go run ./cmd/lint -write-specs ./...`", path, err)
			continue
		}
		if string(committed) != content {
			t.Errorf("%s is stale; run `go run ./cmd/lint -write-specs ./...`", path)
		}
	}
	if !sawKernels {
		t.Errorf("SpecFiles produced %d files but none for internal/kernels", len(files))
	}
	// And the reverse: no committed spec without a generating package.
	modDir, _, err := analysis.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.Walk(modDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || filepath.Ext(path) != ".ckptspec" {
			return err
		}
		if strings.Contains(path, "testdata") {
			return nil
		}
		if _, ok := files[path]; !ok {
			t.Errorf("%s committed but no package generates it", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
