package repro

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestReachability pins the functions under internal/ that no binary
// reaches. It links every cmd/ tool and the bench/ module
// with inlining off and the linker's -dumpdep, which prints one "from -> to"
// edge per symbol its dead-code pass keeps, and names each declared
// function the way the linker does: pkg.F, pkg.(*T).M, pkg.T.M. Every
// unreachable function must be listed in testdata/unreachable.txt with the
// rule that keeps it after a '#'; an entry that is reachable again, or names
// a function that no longer exists, fails too.
func TestReachability(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	// A fresh output directory: an up-to-date binary is not relinked, and
	// then the linker prints nothing.
	out := t.TempDir()
	reached := make(map[string]bool)
	for _, args := range [][]string{
		{"build", "-o", out + "/", "-gcflags=all=-l", "-ldflags=-dumpdep", "./cmd/..."},
		{"build", "-C", "bench", "-o", filepath.Join(out, "bench.bin"), "-gcflags=all=-l", "-ldflags=-dumpdep", "."},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(goBin, args...)
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		sc := bufio.NewScanner(&stderr)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if _, to, ok := strings.Cut(sc.Text(), " -> "); ok {
				reached[to] = true
			}
		}
	}

	unreached := make(map[string]bool)
	eachFunc(t, "internal", func(path string, _ *token.FileSet, fn *ast.FuncDecl) {
		if fn.Name.Name == "init" || fn.Name.Name == "_" {
			return
		}
		name, wrapper := linkName("repro/"+filepath.ToSlash(filepath.Dir(path)), fn)
		if !reached[name] && !reached[wrapper] {
			unreached[name] = true
		}
	})

	listed, err := readUnreachable("testdata/unreachable.txt")
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for name := range unreached {
		if !listed[name] {
			missing = append(missing, name)
		}
	}
	var stale []string
	for name := range listed {
		if !unreached[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, name := range missing {
		t.Errorf("%s: no binary reaches it; delete it, or list it in testdata/unreachable.txt with its keep rule", name)
	}
	for _, name := range stale {
		t.Errorf("%s: listed in testdata/unreachable.txt but reachable or gone; drop the entry", name)
	}
}

// TestFuzzTargetsListed holds the Makefile's FUZZ_TARGETS, which `make
// fuzz` and `make test-fuzz` run, to the Fuzz functions under internal/ and
// cmd/: each must be listed as directory:function, and each entry must name
// one.
func TestFuzzTargetsListed(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(mk), "\nFUZZ_TARGETS := \\\n")
	if !ok {
		t.Fatal("Makefile: no FUZZ_TARGETS := \\ list")
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(list, "\n") {
		entry, more := strings.CutSuffix(strings.TrimSpace(line), " \\")
		listed[entry] = true
		if !more {
			break
		}
	}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
					entry := filepath.Dir(path) + ":" + fn.Name.Name
					if !listed[entry] {
						t.Errorf("%s: %s is missing from the Makefile's FUZZ_TARGETS", path, entry)
					}
					delete(listed, entry)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for entry := range listed {
		t.Errorf("Makefile: FUZZ_TARGETS lists %s, which is no Fuzz function", entry)
	}
}

// TestFunctionLength holds every non-test function under internal/ and
// cmd/ to 80 lines, counted from its func keyword to its closing brace.
func TestFunctionLength(t *testing.T) {
	const maxLines = 80
	for _, root := range []string{"internal", "cmd"} {
		eachFunc(t, root, func(path string, fset *token.FileSet, fn *ast.FuncDecl) {
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			if n := end.Line - start.Line + 1; n > maxLines {
				t.Errorf("%s:%d: %s is %d lines, over the %d-line bar", path, start.Line, fn.Name.Name, n, maxLines)
			}
		})
	}
}

// eachFunc parses every non-test Go file under root and calls visit with
// each function declaration in it.
func eachFunc(t *testing.T, root string, visit func(path string, fset *token.FileSet, fn *ast.FuncDecl)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				visit(path, fset, fn)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// linkName is the symbol the linker gives fn, declared in package pkg. For
// a method on a value receiver it also returns the pointer-receiver wrapper
// the compiler generates, which is all an interface call through *T keeps.
func linkName(pkg string, fn *ast.FuncDecl) (name, wrapper string) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkg + "." + fn.Name.Name, ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		return fmt.Sprintf("%s.(*%s).%s", pkg, star.X.(*ast.Ident).Name, fn.Name.Name), ""
	}
	t := typ.(*ast.Ident).Name
	return fmt.Sprintf("%s.%s.%s", pkg, t, fn.Name.Name), fmt.Sprintf("%s.(*%s).%s", pkg, t, fn.Name.Name)
}

// readUnreachable parses the pinned list: one linker name per line, then
// '#' and the rule that keeps it. Blank lines and lines starting with '#'
// are comments.
func readUnreachable(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	listed := make(map[string]bool)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rule, _ := strings.Cut(line, "#")
		name, rule = strings.TrimSpace(name), strings.TrimSpace(rule)
		if rule == "" {
			return nil, fmt.Errorf("%s:%d: %s names no keep rule after '#'", path, i+1, name)
		}
		if listed[name] {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, name)
		}
		listed[name] = true
	}
	return listed, nil
}
