package simlint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"
)

// VetConfig is the JSON unit description the go command hands a vettool
// per package. Unlike poollint v1 we decode the import-resolution fields
// too: the hotpath analyzer typechecks against the compiler's export
// data so it can see interface boxing and resolve cross-package calls.
type VetConfig struct {
	ID          string
	Compiler    string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool
	PackageVetx map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// Unit is one package loaded for analysis: parsed files plus (when
// available) type information and the facts of its imports.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Path  string // import path

	// Pkg and Info are nil when typechecking was impossible (export
	// data unavailable). Info may be partially filled when checking
	// degraded: analyzers must treat missing type info as "unknown",
	// never as a violation — degradation hides findings, it must not
	// invent them.
	Pkg  *types.Package
	Info *types.Info

	// ImportFacts maps import path -> that package's function facts,
	// loaded from the vetx files of direct imports.
	ImportFacts map[string]PackageFacts

	pragmas *pragmaIndex
}

// LoadUnit reads a vet unit config, parses its files (with comments, so
// pragmas survive), typechecks when export data is on hand, and loads
// import facts.
func LoadUnit(cfgPath string) (*Unit, *VetConfig, error) {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, nil, err
	}
	var cfg VetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", cfgPath, err)
	}
	u, err := loadFiles(&cfg)
	if err != nil {
		return nil, nil, err
	}
	return u, &cfg, nil
}

func loadFiles(cfg *VetConfig) (*Unit, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		file, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, file)
	}
	u := &Unit{
		Fset:        fset,
		Files:       files,
		Path:        cfg.ImportPath,
		ImportFacts: make(map[string]PackageFacts),
	}
	u.typecheck(cfg)
	for path, vetx := range cfg.PackageVetx {
		pf, err := readFacts(vetx)
		if err != nil {
			// A missing or stale facts file degrades the cross-package
			// hotpath check for that import; it is not fatal.
			continue
		}
		u.ImportFacts[path] = pf
	}
	u.pragmas = scanPragmas(u)
	return u, nil
}

// typecheck attaches type information using the compiler export data the
// go command lists in the unit config. Failures are tolerated: Info
// stays partially filled and analyzers degrade to syntax-only checks.
func (u *Unit) typecheck(cfg *VetConfig) {
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "source"
	}
	lookup := func(path string) (string, bool) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		return file, ok
	}
	var imp types.Importer
	if compiler == "source" {
		imp = importer.ForCompiler(u.Fset, "source", nil)
	} else {
		imp = importer.ForCompiler(u.Fset, compiler, func(path string) (io.ReadCloser, error) {
			file, ok := lookup(path)
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		})
	}
	u.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	tc := &types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if path == "unsafe" {
				return types.Unsafe, nil
			}
			return imp.Import(path)
		}),
		Error: func(error) {}, // collect nothing; partial Info is enough
		Sizes: types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, _ := tc.Check(u.Path, u.Fset, u.Files, u.Info)
	u.Pkg = pkg
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// LoadDir parses and typechecks a directory of Go source in-process —
// the fixture-test entry point, bypassing the vet protocol. The source
// importer resolves std imports from source, so no export data files
// are needed. Test files (_test.go) are included when withTests is set.
func LoadDir(dir, importPath string, withTests bool) (*Unit, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		if !withTests && strings.HasSuffix(fi.Name(), "_test.go") {
			return false
		}
		return true
	}, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") {
			continue // external test packages analyze separately if ever needed
		}
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	u := &Unit{
		Fset:        fset,
		Files:       files,
		Path:        importPath,
		ImportFacts: make(map[string]PackageFacts),
	}
	u.typecheck(&VetConfig{}) // no Compiler: the source importer
	u.pragmas = scanPragmas(u)
	return u, nil
}
