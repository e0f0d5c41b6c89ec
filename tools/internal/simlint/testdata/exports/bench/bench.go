// Package bench uses lib.ForBench; its own exported names are never
// reported.
package bench

import "fixture/internal/lib"

// Unused has no user, but bench declarations are exempt.
func Unused() int { return lib.ForBench() }
