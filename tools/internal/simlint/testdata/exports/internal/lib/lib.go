// Package lib declares one exported name per case of the exports check.
package lib

import "fmt"

func Used() int     { return 1 } // internal/app calls it
func TestOnly() int { return 2 } // only lib_test.go calls it
func ForCmd() int   { return 3 } // only cmd/tool calls it
func ForBench() int { return 4 } // only bench calls it

const Limit = 5 // only lib_test.go reads it

type Scratch struct{ n int } // only lib_test.go names it

type Value struct{ v int } // fmt finds String through fmt.Stringer

func NewValue(v int) Value { return Value{v} }

func (v Value) String() string { return fmt.Sprint(v.v) }

type Impl struct{} // internal/app calls Do through its Doer interface

func (Impl) Do() int   { return 6 }
func (Impl) Undo() int { return 7 } // implements nothing, no caller

//simlint:testapi the fixture's tests build their inputs with it
func Kept() int { return 8 }

//simlint:testapi
func Bare() int { return 9 }

//simlint:testapi once only tests called it; internal/app does now
func Stale() int { return 10 }
