// Package app is the non-test user of package lib.
package app

import (
	"fmt"

	"fixture/internal/lib"
)

// Doer is the module interface lib.Impl implements.
type Doer interface{ Do() int }

// Run uses lib's names the way the product does.
func Run() int {
	var d Doer = lib.Impl{}
	fmt.Println(lib.NewValue(lib.Used()))
	return d.Do() + lib.Stale()
}
