package lib

import "testing"

func TestLib(t *testing.T) {
	s := Scratch{n: TestOnly() + Kept() + Bare() + Limit}
	if s.n == 0 {
		t.Fatal(s)
	}
}
