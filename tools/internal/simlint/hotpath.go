package simlint

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// runHotpath verifies every //simlint:hotpath function: no heap
// allocation, defer, go, map range, interface boxing or dynamic call on
// any path, recursing through same-package callees and consulting vetx
// facts for cross-package ones. Cold branches (if x.record { ... },
// //simlint:cold) are exempt: they are the documented observed-run paths.
//
// This is the path-complete complement of the AllocsPerRun tests: those
// prove the branches a benchmark happens to take are clean, this proves
// every branch is.
func runHotpath(u *Unit) []Diagnostic {
	if len(u.pragmas.hotpathFuncs) == 0 {
		return nil
	}
	decls := make(map[string]*ast.FuncDecl)
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				decls[funcKey(fd)] = fd
			}
		}
	}
	roots := make([]string, 0, len(u.pragmas.hotpathFuncs))
	for key := range u.pragmas.hotpathFuncs {
		roots = append(roots, key)
	}
	sort.Strings(roots)

	var diags []Diagnostic
	for _, root := range roots {
		h := &hotWalk{u: u, decls: decls, visited: map[string]bool{root: true}}
		h.visit(u.pragmas.hotpathFuncs[root], []string{root})
		diags = append(diags, h.diags...)
	}
	return diags
}

type hotWalk struct {
	u       *Unit
	decls   map[string]*ast.FuncDecl
	visited map[string]bool
	diags   []Diagnostic
}

func (h *hotWalk) add(o op, chain []string) {
	h.diags = append(h.diags, Diagnostic{
		Pos:      h.u.Fset.Position(o.pos),
		Analyzer: AnalyzerHotpath,
		Message:  fmt.Sprintf("%s in hot path %s", o.desc, strings.Join(chain, " -> ")),
	})
}

func (h *hotWalk) visit(fd *ast.FuncDecl, chain []string) {
	for _, o := range scanOps(h.u, fd, scanForHot) {
		switch o.kind {
		case opAlloc, opHotOnly, opDynamic:
			h.add(o, chain)
		case opCall:
			switch {
			case o.samePkg != "":
				h.callSame(o, chain)
			case o.pkgPath != "":
				h.callCross(o, chain)
			}
		}
	}
}

// callSame recurses into a same-package callee. Callees that carry
// their own //simlint:hotpath annotation are trusted here: they are
// verified as roots of their own traversal.
func (h *hotWalk) callSame(o op, chain []string) {
	if _, hot := h.u.pragmas.hotpathFuncs[o.samePkg]; hot {
		return
	}
	if h.visited[o.samePkg] {
		return
	}
	h.visited[o.samePkg] = true
	callee, ok := h.decls[o.samePkg]
	if !ok {
		return // resolved to something we have no body for; nothing to prove
	}
	sub := make([]string, len(chain), len(chain)+1)
	copy(sub, chain)
	h.visit(callee, append(sub, o.samePkg))
}

// callCross judges a cross-package call by the callee's exported facts:
// allowlisted packages and fact-proven-clean (or hotpath-annotated,
// hence separately verified) functions pass; anything else — a function
// whose facts say it allocates, or one with no facts at all — is
// reported at the call site.
func (h *hotWalk) callCross(o op, chain []string) {
	if allowlisted(o.pkgPath) {
		return
	}
	pf, havePkg := h.u.ImportFacts[o.pkgPath]
	if havePkg {
		if ff, ok := pf[o.callee]; ok {
			if ff.Hotpath || ff.Alloc == "" {
				return
			}
			h.diags = append(h.diags, Diagnostic{
				Pos:      h.u.Fset.Position(o.pos),
				Analyzer: AnalyzerHotpath,
				Message: fmt.Sprintf("call to %s.%s, which may allocate (%s), in hot path %s",
					o.pkgPath, o.callee, ff.Alloc, strings.Join(chain, " -> ")),
			})
			return
		}
	}
	h.diags = append(h.diags, Diagnostic{
		Pos:      h.u.Fset.Position(o.pos),
		Analyzer: AnalyzerHotpath,
		Message: fmt.Sprintf("call to %s.%s (no allocation facts, not allowlisted) in hot path %s",
			o.pkgPath, o.callee, strings.Join(chain, " -> ")),
	})
}
