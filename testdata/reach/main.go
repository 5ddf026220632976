// Command reachmod reaches lib's functions every way the check follows.
package main

import (
	"errors"
	"fmt"
	"io"

	"reachmod/internal/lib"
)

func main() {
	s := lib.NewShape(2)
	fmt.Println(lib.Used(), s.Area(), s, lib.NewBox(3).Get())
	fmt.Println(errors.Unwrap(lib.Wrap(io.EOF)) == io.EOF)
}
