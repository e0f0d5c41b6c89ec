package simlint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
)

// AnalyzerExports names the module-wide check for exported names that
// only tests use. It is not a vet analyzer: a vet unit sees a package's
// dependencies, never its users, so the check loads the whole module at
// once (checkExports) and runs as a test over the repository.
const AnalyzerExports = "exports"

// reflectiveInterfaces are the std interfaces the standard library
// consults by dynamic type check rather than through a conversion the
// module writes: fmt's verbs and the text and JSON codecs (error is
// added from the universe).
var reflectiveInterfaces = []string{
	"fmt.Stringer", "fmt.GoStringer", "fmt.Formatter",
	"encoding.TextMarshaler", "encoding.TextUnmarshaler",
	"encoding/json.Marshaler", "encoding/json.Unmarshaler",
}

// modulePkg is one package of the module, type-checked from its non-test
// files.
type modulePkg struct {
	dir   string // relative to the module root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// checkExports loads every package of the Go module rooted at root from
// source, non-test files only, and reports each exported func, method,
// type, var and const declared under internal/ or tools/ that no
// non-test file of the module uses:
//
//   - every non-test file counts as a user, bench/, cmd/, examples/ and
//     the root package included; names declared outside internal/ and
//     tools/ are never reported;
//   - a method that implements a method of an interface the module names
//     (or of one the standard library consults by reflection, such as
//     fmt.Stringer) is used;
//   - a type is used when it is named, or when one of its methods is
//     used;
//   - `//simlint:testapi <reason>` on a declaration keeps a test-only
//     name; a tag without a reason, or on a name that has a non-test
//     user, is itself a finding.
//
// Module imports resolve to the check's own packages, so each package is
// type-checked once and an object is the same types.Object in its
// package and in every user; std imports share one source importer.
func checkExports(root string) ([]Diagnostic, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := regexp.MustCompile(`(?m)^module\s+"?([^"\s]+)`).FindSubmatch(gomod)
	if m == nil {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	module := string(m[1])
	fset := token.NewFileSet()
	pkgs := make(map[string]*modulePkg) // by import path
	var order []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if _, noGo := err.(*build.NoGoError); noGo || (err == nil && len(bp.GoFiles) == 0) {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		mp := &modulePkg{dir: filepath.ToSlash(rel)}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			mp.files = append(mp.files, f)
		}
		ip := module
		if mp.dir != "." {
			ip += "/" + mp.dir
		}
		pkgs[ip] = mp
		order = append(order, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}

	std := importer.ForCompiler(fset, "source", nil)
	var load func(ip string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if _, ok := pkgs[path]; ok {
			return load(path)
		}
		return std.Import(path)
	})
	load = func(ip string) (*types.Package, error) {
		mp := pkgs[ip]
		if mp.pkg != nil {
			return mp.pkg, nil
		}
		if mp.info != nil {
			return nil, fmt.Errorf("import cycle through %s", ip)
		}
		mp.info = &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Uses:  make(map[*ast.Ident]types.Object),
			Defs:  make(map[*ast.Ident]types.Object),
		}
		// A type error fails the check: an unchecked package would hide
		// its uses and report names that are in fact used.
		var first error
		tc := &types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH),
			Error: func(err error) { first = errors.Join(first, err) }}
		pkg, _ := tc.Check(ip, fset, mp.files, mp.info)
		if first != nil {
			return nil, fmt.Errorf("type-checking %s: %w", ip, first)
		}
		mp.pkg = pkg
		return pkg, nil
	}
	for _, ip := range order {
		if _, err := load(ip); err != nil {
			return nil, err
		}
	}
	var mps []*modulePkg
	for _, ip := range order {
		mps = append(mps, pkgs[ip])
	}
	diags := exportFindings(fset, mps, std)
	sortDiags(diags)
	return diags, nil
}

// exportFindings joins the declarations under internal/ and tools/
// against the uses of every non-test file.
func exportFindings(fset *token.FileSet, mps []*modulePkg, std types.Importer) []Diagnostic {
	used := make(map[types.Object]bool)
	var ifaces []*types.Interface
	seen := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for _, mp := range mps {
		for _, obj := range mp.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
				if recv := recvNamed(o); recv != nil {
					used[recv.Obj()] = true // a method's use uses its type
				}
				// A module value passed to a func converts to the
				// parameter's interface (heap.Push, sort.Sort, io.Copy).
				params := o.Type().(*types.Signature).Params()
				for i := 0; i < params.Len(); i++ {
					addIface(params.At(i).Type())
				}
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
		for _, tv := range mp.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
	for _, name := range reflectiveInterfaces {
		dot := strings.LastIndex(name, ".")
		if pkg, err := std.Import(name[:dot]); err == nil {
			addIface(pkg.Scope().Lookup(name[dot+1:]).Type())
		}
	}
	addIface(types.Universe.Lookup("error").Type())

	inUse := func(obj types.Object) (kind string, ok bool) {
		switch o := obj.(type) {
		case *types.Func:
			recv := recvNamed(o)
			if recv == nil {
				return "func", used[o]
			}
			if used[o] {
				return "method", true
			}
			ptr := types.NewPointer(recv)
			for _, it := range ifaces {
				if m, _, _ := types.LookupFieldOrMethod(it, false, nil, o.Name()); m != nil && types.Implements(ptr, it) {
					return "method", true
				}
			}
			return "method", false
		case *types.TypeName:
			return "type", used[o]
		case *types.Var:
			return "var", used[o]
		case *types.Const:
			return "const", used[o]
		}
		return "", true
	}

	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: fset.Position(pos), Analyzer: AnalyzerExports, Message: fmt.Sprintf(format, args...)})
	}
	check := func(mp *modulePkg, id *ast.Ident, docs ...*ast.CommentGroup) {
		obj := mp.info.Defs[id]
		if obj == nil || !id.IsExported() {
			return
		}
		kind, ok := inUse(obj)
		name := qualifiedName(obj)
		tag, reason := testAPITag(docs)
		switch {
		case tag != nil && reason == "":
			report(tag.Pos(), "//simlint:testapi requires a reason: say which test needs %s and why", name)
		case tag != nil && ok:
			report(tag.Pos(), "stale //simlint:testapi: %s has a non-test user; drop the tag", name)
		case tag == nil && !ok:
			report(id.Pos(), "exported %s %s has no non-test user: delete it, or keep it with //simlint:testapi <reason>", kind, name)
		}
	}
	for _, mp := range mps {
		if top, _, _ := strings.Cut(mp.dir, "/"); top != "internal" && top != "tools" {
			continue
		}
		for _, f := range mp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					check(mp, d.Name, d.Doc)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							check(mp, s.Name, s.Doc, d.Doc)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								check(mp, id, s.Doc, d.Doc)
							}
						}
					}
				}
			}
		}
	}
	return diags
}

// recvNamed returns the named receiver type of a method (pointer
// stripped), or nil for a func.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// qualifiedName renders pkg.Name, or pkg.Recv.Name for a method.
func qualifiedName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := recvNamed(fn); recv != nil {
			return obj.Pkg().Name() + "." + recv.Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// testAPITag finds the first //simlint:testapi directive in the comment
// groups and returns it with its reason.
func testAPITag(docs []*ast.CommentGroup) (*ast.Comment, string) {
	for _, cg := range docs {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if verb, rest, ok := directive(c); ok && verb == pragmaTestAPI {
				return c, rest
			}
		}
	}
	return nil, ""
}
