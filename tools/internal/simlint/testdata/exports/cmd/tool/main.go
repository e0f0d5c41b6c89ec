// Command tool uses lib.ForCmd and the app.
package main

import (
	"fmt"

	"fixture/internal/app"
	"fixture/internal/lib"
)

func main() { fmt.Println(lib.ForCmd(), app.Run()) }
