package repro

import (
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedByDesign names the internal packages that no program imports,
// each with the reason it stays. Every other internal package must be
// reached by a program under cmd/, examples/ or servicebench/.
var unreachedByDesign = map[string]string{
	"repro/internal/faultinject": "test support: the deterministic faults and crash plans the pipeline, checkpoint and server suites inject",
	"repro/internal/freqsat":     "the exact FREQSAT adversary that lattice's deduction bounds are tested against",
}

// TestInternalPackagesHaveAnImporter is the dead-package census: it walks
// the non-test imports of every package in the tree (servicebench's module
// included) and fails for each internal package that no command, example
// or the service benchmark reaches, unless unreachedByDesign says why it
// stays.
func TestInternalPackagesHaveAnImporter(t *testing.T) {
	imports := map[string][]string{} // import path → non-test imports
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		// servicebench's module path is repro/servicebench, so one rule
		// maps both modules' directories to import paths.
		path := "repro"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		imports[path] = pkg.Imports
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var queue []string
	for path := range imports {
		for _, root := range []string{"repro/cmd/", "repro/examples/", "repro/servicebench/"} {
			if strings.HasPrefix(path+"/", root) {
				queue = append(queue, path)
			}
		}
	}
	if len(queue) == 0 {
		t.Fatal("found no programs under cmd/, examples/ or servicebench/")
	}
	reached := map[string]bool{}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if reached[path] {
			continue
		}
		reached[path] = true
		for _, imp := range imports[path] {
			if _, ours := imports[imp]; ours && !reached[imp] {
				queue = append(queue, imp)
			}
		}
	}

	var internal []string
	for path := range imports {
		if strings.HasPrefix(path, "repro/internal/") {
			internal = append(internal, path)
		}
	}
	sort.Strings(internal)
	for _, path := range internal {
		_, allowed := unreachedByDesign[path]
		switch {
		case !reached[path] && !allowed:
			t.Errorf("%s: no program imports it; delete it, or list it in unreachedByDesign with the reason it stays", path)
		case reached[path] && allowed:
			t.Errorf("%s: a program imports it now; drop its unreachedByDesign entry", path)
		}
	}
	for path := range unreachedByDesign {
		if _, ok := imports[path]; !ok {
			t.Errorf("%s: listed in unreachedByDesign but not in the tree", path)
		}
	}
}
