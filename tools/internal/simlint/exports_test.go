package simlint

import (
	"fmt"
	"path/filepath"
	"testing"
)

// TestRepositoryExportsHaveNonTestUsers runs the exports check over this
// repository: every exported name under internal/ and tools/ has a
// non-test user or a reasoned //simlint:testapi tag.
func TestRepositoryExportsHaveNonTestUsers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped with -short")
	}
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := checkExports(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = rel
		}
		t.Error(d)
	}
}

// TestExportsFixture pins every case of the check on the fixture module
// in testdata/exports: names with a non-test user (in internal/, in
// cmd/, in bench/), interface methods (fmt.Stringer and a module
// interface) and a reasoned testapi tag pass; a test-only func, const,
// type and method, a reasonless tag and a stale tag are reported.
func TestExportsFixture(t *testing.T) {
	diags, err := checkExports("testdata/exports")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message))
	}
	wantDiags(t, got,
		"lib.go:7: exported func lib.TestOnly has no non-test user",
		"lib.go:11: exported const lib.Limit has no non-test user",
		"lib.go:13: exported type lib.Scratch has no non-test user",
		"lib.go:24: exported method lib.Impl.Undo has no non-test user",
		"lib.go:29: //simlint:testapi requires a reason",
		"lib.go:32: stale //simlint:testapi: lib.Stale has a non-test user",
	)
}
