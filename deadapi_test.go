// TestNoTestOnlyAPI keeps exported API that only tests use from building up
// in internal/. It type-checks every non-test file of this module and of the
// benchmark module (perfbench/, which imports this one) and fails listing
// each exported function, method, type, variable or constant in internal/
// that no non-test file uses. A method counts as used when its receiver
// satisfies an interface that has it, since a call through the interface
// records the interface's method, not the concrete one.
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOracles are exported names with no non-test caller that stay because
// a test uses them as the reference for the paper's model, or because a
// planned invariant needs them. One reason per entry.
var testOracles = map[string]string{
	"radio.LogNormal.SampleReceivedDBm": "one draw of the log-normal shadowing model, whose mean and spread the radio tests check",
	"radio.CombineDBm":                  "power-sum oracle for the channel's interference tests",
	"radio.SINRdB":                      "the dB-domain SINR that eqs. 2-3 are stated in, the reference the radio tests check",
	"radio.HiddenTerminalCSMissProb":    "eq. 4 of the paper, the closed form the model tests check",
	"radio.LogNormal.CSMissRangeFor":    "inverse of eq. 4, the carrier-sense miss range the model tests check",
	"comap.Model.CommunicationRange":    "R_t, the paper's communication range, which the model tests check against the testbed's ~72 m",
	"sim.Engine.PoolSize":               "event free-list size the planned pool-leak run invariant reads",
	"stats.GoodputMeter.Frames":         "delivered-frame count the delivered <= sent run invariant (netsim CheckRunInvariants) compares with tx.data",
	"traffic.Peer.MintedTo":             "frames a flow's streams minted, which the per-flow delivered <= sent run invariant (netsim CheckRunInvariants) compares with its deliveries",
}

// goPackage is the subset of `go list -json` output the scan reads.
type goPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
}

// listDeps returns every package the non-test build of the module in dir
// depends on, dependencies first, with compiled export data for each.
func listDeps(t *testing.T, dir string) []goPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-e", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []goPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p goPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decode go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// moduleImporter serves this module's packages from the ones type-checked
// from source and everything else from the export data go list compiled.
type moduleImporter struct {
	checked map[string]*types.Package
	gc      types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.gc.Import(path)
}

func TestNoTestOnlyAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	// Both listings name this module's packages by the same import path and
	// directory; the first listing of each wins.
	var pkgs []goPackage
	seen := map[string]bool{}
	for _, dir := range []string{".", "perfbench"} {
		for _, p := range listDeps(t, dir) {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	fset := token.NewFileSet()
	export := map[string]string{}
	for _, p := range pkgs {
		export[p.ImportPath] = p.Export
	}
	imp := &moduleImporter{
		checked: map[string]*types.Package{},
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if export[path] == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(export[path])
		}),
	}

	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	type declared struct {
		obj types.Object
		key string
	}
	var decls []declared
	addIfaces := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
					if it, ok := n.Underlying().(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
	}

	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		imp.checked[p.ImportPath] = tp
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		addIfaces(tp.Scope())

		short, ok := strings.CutPrefix(p.ImportPath, "repro/internal/")
		if !ok {
			continue
		}
		for _, obj := range info.Defs {
			if obj == nil || !obj.Exported() {
				continue
			}
			if obj.Parent() == tp.Scope() {
				decls = append(decls, declared{obj, short + "." + obj.Name()})
			} else if recv := receiver(obj); recv != nil {
				decls = append(decls, declared{obj, short + "." + recv.Obj().Name() + "." + obj.Name()})
			}
		}
	}

	// Interfaces the standard library checks for by reflection or type
	// assertion (error, fmt.Stringer, json.Marshaler, http.Handler...).
	for _, p := range pkgs {
		if p.Standard {
			std, err := imp.Import(p.ImportPath)
			if err != nil {
				t.Fatalf("import %s: %v", p.ImportPath, err)
			}
			addIfaces(std.Scope())
		}
	}

	var dead []string
	live := map[string]bool{}
	for _, d := range decls {
		if used[d.obj] || satisfiesInterface(d.obj, ifaces) {
			live[d.key] = true
			continue
		}
		if _, ok := testOracles[d.key]; ok {
			continue
		}
		dead = append(dead, fmt.Sprintf("%s (%s)", d.key, relPos(fset, d.obj.Pos())))
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported names in internal/ have no non-test use; delete them, or, if a test uses one as a model oracle, add it to testOracles with the reason:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
	for key := range testOracles {
		if live[key] {
			t.Errorf("testOracles entry %s now has a non-test use; drop the entry", key)
		}
	}
}

// receiver returns the named type obj is a method of, or nil when obj is
// not a method.
func receiver(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, _ := recv.(*types.Named)
	return named
}

// origin maps a use of an instantiated generic function, method or field
// back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// satisfiesInterface reports whether obj is a method whose receiver type
// implements some interface that has a method of the same name.
func satisfiesInterface(obj types.Object, ifaces []*types.Interface) bool {
	named := receiver(obj)
	if named == nil || named.TypeParams() != nil {
		return false
	}
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, nil, obj.Name()); m == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// relPos renders pos as file:line relative to the module root.
func relPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, p.Filename); err == nil {
			p.Filename = rel
		}
	}
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
