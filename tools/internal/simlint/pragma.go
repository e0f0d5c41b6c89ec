package simlint

import (
	"go/ast"
	"go/token"
	"strings"
)

// simlint's comment directives. All use the Go directive style (no space
// after //, so gofmt leaves them alone):
//
//	//simlint:hotpath                 — on a func: must be allocation-free
//	//simlint:barrier <why>           — on a func: may touch lane-local state
//	//simlint:lanelocal               — on a struct field: lane-affine
//	//simlint:deterministic           — in a file: package is sim-deterministic
//	//simlint:cold                    — on an if statement: body is off the hot path
//	//simlint:ignore [analyzer:] why  — suppress findings on this or the next line
//	//simlint:testapi why             — on a declaration: exported for tests only
const (
	pragmaHotpath       = "hotpath"
	pragmaBarrier       = "barrier"
	pragmaLaneLocal     = "lanelocal"
	pragmaDeterministic = "deterministic"
	pragmaCold          = "cold"
	pragmaIgnore        = "ignore"
	pragmaTestAPI       = "testapi"
)

// ignoreDirective is one parsed //simlint:ignore comment.
type ignoreDirective struct {
	pos      token.Position // of the comment
	analyzer string         // "" = all analyzers
	reason   string
	used     bool
}

// pragmaIndex holds every directive found in a unit, pre-resolved to the
// declarations they annotate.
type pragmaIndex struct {
	fset *token.FileSet

	// hotpathFuncs and barrierFuncs are keyed by funcKey (recv.name or
	// name) of the annotated declaration.
	hotpathFuncs map[string]*ast.FuncDecl
	barrierFuncs map[string]bool

	// laneLocal maps "StructName.field" for every field whose doc or
	// line comment carries //simlint:lanelocal.
	laneLocal map[string]token.Pos

	// deterministic is set when any file in the unit declares
	// //simlint:deterministic.
	deterministic bool

	// coldIfs holds the *ast.IfStmt nodes annotated //simlint:cold.
	coldIfs map[*ast.IfStmt]bool

	ignores []*ignoreDirective
}

// directive splits a comment of the form "//simlint:verb rest" and
// reports ok=false for any other comment.
func directive(c *ast.Comment) (verb, rest string, ok bool) {
	text := c.Text
	if !strings.HasPrefix(text, "//simlint:") {
		return "", "", false
	}
	body := strings.TrimPrefix(text, "//simlint:")
	verb, rest, _ = strings.Cut(body, " ")
	return verb, strings.TrimSpace(rest), true
}

// funcKey names a declaration the way the facts table does: "recv.name"
// for methods (pointer stars stripped), plain "name" otherwise.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
			continue
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
			continue
		}
		break
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// scanPragmas walks every comment in the unit and builds the index.
func scanPragmas(u *Unit) *pragmaIndex {
	px := &pragmaIndex{
		fset:         u.Fset,
		hotpathFuncs: make(map[string]*ast.FuncDecl),
		barrierFuncs: make(map[string]bool),
		laneLocal:    make(map[string]token.Pos),
		coldIfs:      make(map[*ast.IfStmt]bool),
	}
	for _, f := range u.Files {
		// File- and package-level: deterministic pragma anywhere in the
		// file, and the position-keyed ignore directives.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, rest, ok := directive(c)
				if !ok {
					continue
				}
				switch verb {
				case pragmaDeterministic:
					px.deterministic = true
				case pragmaIgnore:
					analyzer, reason := splitIgnore(rest)
					px.ignores = append(px.ignores, &ignoreDirective{
						pos:      u.Fset.Position(c.Pos()),
						analyzer: analyzer,
						reason:   reason,
					})
				}
			}
		}
		// Declaration-attached: hotpath/barrier on funcs, lanelocal on
		// struct fields, cold on ifs.
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Doc != nil {
					for _, c := range d.Doc.List {
						verb, _, ok := directive(c)
						if !ok {
							continue
						}
						switch verb {
						case pragmaHotpath:
							px.hotpathFuncs[funcKey(d)] = d
						case pragmaBarrier:
							px.barrierFuncs[funcKey(d)] = true
						}
					}
				}
			case *ast.GenDecl:
				px.scanStructFields(d)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			if px.hasColdComment(f, ifs) {
				px.coldIfs[ifs] = true
			}
			return true
		})
	}
	return px
}

// scanStructFields records //simlint:lanelocal markers on struct fields,
// from either the field's doc comment or its trailing line comment.
func (px *pragmaIndex) scanStructFields(gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok || st.Fields == nil {
			continue
		}
		for _, field := range st.Fields.List {
			marked := false
			for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
				if cg == nil {
					continue
				}
				for _, c := range cg.List {
					if verb, _, ok := directive(c); ok && verb == pragmaLaneLocal {
						marked = true
					}
				}
			}
			if !marked {
				continue
			}
			for _, name := range field.Names {
				px.laneLocal[ts.Name.Name+"."+name.Name] = name.Pos()
			}
		}
	}
}

// hasColdComment reports whether an //simlint:cold comment sits on the
// line of the if statement or the line above it.
func (px *pragmaIndex) hasColdComment(f *ast.File, ifs *ast.IfStmt) bool {
	line := px.fset.Position(ifs.Pos()).Line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			verb, _, ok := directive(c)
			if !ok || verb != pragmaCold {
				continue
			}
			cl := px.fset.Position(c.Pos()).Line
			if cl == line || cl == line-1 {
				return true
			}
		}
	}
	return false
}

// splitIgnore parses the body of an ignore directive: an optional
// "analyzer:" scope followed by the mandatory reason.
func splitIgnore(rest string) (analyzer, reason string) {
	head, tail, found := strings.Cut(rest, ":")
	if found {
		head = strings.TrimSpace(head)
		for _, a := range AllAnalyzers {
			if head == a {
				return a, strings.TrimSpace(tail)
			}
		}
	}
	return "", strings.TrimSpace(rest)
}

// suppress drops diagnostics covered by an ignore directive on the same
// line or the line immediately above, in the same file, with a matching
// analyzer scope. Matched directives are marked used.
func (px *pragmaIndex) suppress(diags []Diagnostic) []Diagnostic {
	if len(px.ignores) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, ig := range px.ignores {
			if ig.reason == "" {
				continue // malformed; reported separately, never suppresses
			}
			if ig.analyzer != "" && ig.analyzer != d.Analyzer {
				continue
			}
			if ig.pos.Filename != d.Pos.Filename {
				continue
			}
			if ig.pos.Line == d.Pos.Line || ig.pos.Line == d.Pos.Line-1 {
				ig.used = true
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// badIgnores reports ignore directives with no reason: the escape hatch
// exists to record *why* an invariant is waived, so a bare waiver is
// itself a finding.
func (px *pragmaIndex) badIgnores() []Diagnostic {
	var diags []Diagnostic
	for _, ig := range px.ignores {
		if ig.reason == "" {
			diags = append(diags, Diagnostic{
				Pos:      ig.pos,
				Analyzer: "simlint",
				Message:  "//simlint:ignore requires a reason (and optionally an analyzer scope: //simlint:ignore hotpath: reason)",
			})
		}
	}
	return diags
}
