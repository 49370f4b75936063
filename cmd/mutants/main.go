// Command mutants runs the mutation table (mutants.txt beside it): for each
// entry it writes the mutated file to a temporary directory, runs
// `go test -count=1 -overlay` on the entry's packages with a -run pattern
// selecting its tests, and checks the outcome. A mutant is killed when
// every test the entry names fails; a control entry (marked survives)
// must pass. Run it from the module root:
//
//	go run ./cmd/mutants                 # every entry, one at a time
//	go run ./cmd/mutants -run 'splice'   # the entries whose names match
//
// It exits 1 when a mutant survives, a control is killed, a named test
// passes, a package runs no test, a mutant does not build, or an entry's
// old text does not occur exactly once. It never writes into the checkout.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"time"

	"dolxml/internal/mutation"
)

func main() {
	run := flag.String("run", "", "run only the entries whose names match this regexp")
	flag.Parse()
	if err := runAll("cmd/mutants/mutants.txt", *run); err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		os.Exit(1)
	}
}

func runAll(table, pattern string) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	src, err := os.ReadFile(filepath.Join(root, table))
	if err != nil {
		return err
	}
	entries, err := mutation.Parse(table, src)
	if err != nil {
		return err
	}
	sel, err := regexp.Compile(pattern)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "mutants")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	start := time.Now()
	var bad []string
	n := 0
	for i := range entries {
		e := &entries[i]
		if !sel.MatchString(e.Name) {
			continue
		}
		n++
		t0 := time.Now()
		verdict, out, err := runOne(root, tmp, e)
		status := "ok  "
		if err != nil {
			status = "FAIL"
			bad = append(bad, e.Name)
			verdict = err.Error()
		}
		fmt.Printf("%s %-44s %5.1fs  %s\n", status, e.Name, time.Since(t0).Seconds(), verdict)
		if err != nil && len(out) > 0 {
			os.Stdout.Write(tail(out, 40))
		}
	}
	fmt.Printf("%d entries in %.1fs\n", n, time.Since(start).Seconds())
	if n == 0 {
		return fmt.Errorf("no entry matches %q", pattern)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d of %d entries failed: %s", len(bad), n, strings.Join(bad, ", "))
	}
	return nil
}

var failRE = regexp.MustCompile(`(?m)^--- FAIL: (\S+)`)

// runOne runs one entry. It returns what happened and go test's output,
// and an error when the outcome is not the one the entry expects.
func runOne(root, tmp string, e *mutation.Entry) (string, []byte, error) {
	abs := filepath.Join(root, filepath.FromSlash(e.File))
	src, err := os.ReadFile(abs)
	if err != nil {
		return "", nil, err
	}
	mutated, err := e.Apply(src)
	if err != nil {
		return "", nil, err
	}
	dir := filepath.Join(tmp, e.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	file := filepath.Join(dir, filepath.Base(abs))
	if err := os.WriteFile(file, mutated, 0o644); err != nil {
		return "", nil, err
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: file}})
	if err != nil {
		return "", nil, err
	}
	overlayFile := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		return "", nil, err
	}

	args := []string{"test", "-count=1", "-vet=off", "-timeout=5m", "-overlay=" + overlayFile, "-run", e.RunPattern()}
	cmd := exec.Command("go", append(args, e.Packages()...)...)
	cmd.Dir = root
	out, runErr := cmd.CombinedOutput()
	if bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")) {
		return "", out, fmt.Errorf("the mutant does not build")
	}
	if bytes.Contains(out, []byte("no tests to run")) {
		return "", out, fmt.Errorf("a package ran no test")
	}
	var failed []string
	for _, m := range failRE.FindAllSubmatch(out, -1) {
		failed = append(failed, string(m[1]))
	}
	if e.Survives {
		if runErr != nil {
			return "", out, fmt.Errorf("the control entry was killed (failed: %s)", strings.Join(failed, ", "))
		}
		return "survived, as a control must", out, nil
	}
	if runErr == nil {
		return "", out, fmt.Errorf("SURVIVED: every test passed")
	}
	if ee := (*exec.ExitError)(nil); !errors.As(runErr, &ee) {
		return "", out, runErr
	}
	var passed []string
	for _, n := range e.TestNames() {
		if !slices.Contains(failed, n) {
			passed = append(passed, n)
		}
	}
	if len(passed) > 0 {
		return "", out, fmt.Errorf("not failed by %s (failed: %s)", strings.Join(passed, ", "), strings.Join(failed, ", "))
	}
	return "killed by " + strings.Join(failed, ", "), out, nil
}

// moduleRoot is the directory of the main module's go.mod.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", err
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a module")
	}
	return filepath.Dir(gomod), nil
}

// tail returns the last n lines of out.
func tail(out []byte, n int) []byte {
	lines := bytes.SplitAfter(out, []byte("\n"))
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return bytes.Join(lines, nil)
}
